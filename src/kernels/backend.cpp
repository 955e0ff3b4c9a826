#include "kernels/backend.h"

#include <array>

#include "common/check.h"

namespace defa::kernels {

namespace {

/// The fixed backend table, sorted by name, `fused` (the production
/// kernel) first.  Built once, never mutated, so lookups need no lock.
const std::array<std::unique_ptr<Backend>, 2>& table() {
  static const std::array<std::unique_ptr<Backend>, 2> backends{
      detail::make_fused_backend(), detail::make_reference_backend()};
  return backends;
}

}  // namespace

const Backend& backend(const std::string& name) {
  const Backend* found = nullptr;
  std::string known;
  for (const auto& b : table()) {
    if (b->name() == name) found = b.get();
    known += (known.empty() ? "" : ", ") + b->name();
  }
  DEFA_CHECK(found != nullptr,
             "kernels: unknown backend '" + name + "' (known: " + known + ")");
  return *found;
}

std::vector<std::string> backend_names() {
  std::vector<std::string> names;
  for (const auto& b : table()) names.push_back(b->name());
  return names;
}

const Backend& production() { return *table().front(); }

}  // namespace defa::kernels
