#include "kernels/backend.h"

#include <array>
#include <cstdlib>

namespace defa::kernels {

namespace {

/// The fixed backend table, sorted by name.  Built once, never mutated, so
/// lookups need no lock.
const std::array<std::unique_ptr<Backend>, 2>& table() {
  static const std::array<std::unique_ptr<Backend>, 2> backends{
      detail::make_fused_backend(), detail::make_reference_backend()};
  return backends;
}

}  // namespace

const Backend* find_backend(const std::string& name) noexcept {
  for (const auto& b : table()) {
    if (b->name() == name) return b.get();
  }
  return nullptr;
}

const Backend& backend(const std::string& name) {
  const Backend* b = find_backend(name);
  DEFA_CHECK(b != nullptr, "kernels: unknown backend '" + name + "' (known: " +
                               known_backends() + ")");
  return *b;
}

std::vector<std::string> backend_names() {
  std::vector<std::string> names;
  for (const auto& b : table()) names.push_back(b->name());
  return names;
}

std::string known_backends() {
  std::string names;
  for (const std::string& n : backend_names()) {
    if (!names.empty()) names += ", ";
    names += n;
  }
  return names;
}

std::string default_backend_name() {
  // Re-read the environment on every call so tests can flip DEFA_BACKEND;
  // production callers resolve once per request anyway.
  if (const char* env = std::getenv("DEFA_BACKEND");
      env != nullptr && *env != '\0' && find_backend(env) != nullptr) {
    return env;
  }
  return "reference";
}

const Backend& default_backend() { return backend(default_backend_name()); }

const Backend& backend_or_default(const Backend* b) {
  return b != nullptr ? *b : default_backend();
}

}  // namespace defa::kernels
