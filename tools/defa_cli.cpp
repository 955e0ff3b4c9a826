// defa_cli — one driver for every registered experiment.
//
//   defa_cli list                         enumerate experiments
//   defa_cli run <name>... [--json FILE]  run experiments (tables to stdout,
//                                         combined JSON optionally to FILE)
//   defa_cli run --all [--json FILE]      run everything
//   defa_cli run ... --jobs N             fan experiments over the shared
//                                         thread pool, N at a time
//   defa_cli run ... --connect HOST:PORT  run the experiments in a remote
//                                         defa_serve --listen process over
//                                         Protocol v1 (tables stream back;
//                                         --json works unchanged)
//   defa_cli validate FILE                parse a JSON file emitted by run
//
// All experiments share one Engine, so e.g. `defa_cli run fig6b fig9 table1`
// builds each benchmark workload exactly once (remote runs share the server
// process's Engine the same way).  Failures don't abort the remaining
// experiments; the exit code is nonzero when any failed.

#include <cstring>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "api/engine.h"
#include "api/registry.h"
#include "api/result_io.h"
#include "client/client.h"
#include "common/flags.h"
#include "common/thread_pool.h"

namespace {

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0 << " list\n"
            << "       " << argv0
            << " run <name>... [--jobs N] [--json FILE]\n"
            << "       " << argv0
            << " run --all [--jobs N] [--json FILE]\n"
            << "       " << argv0 << " run <name>... --connect HOST:PORT [--json FILE]\n"
            << "       " << argv0 << " validate FILE\n";
  return 2;
}

/// `run --connect`: every experiment executes inside the remote defa_serve
/// process (its Engine); tables and JSON come back over the
/// wire and are presented exactly like a local run.
int cmd_run_remote(const std::string& endpoint, std::vector<std::string> names,
                   bool all, const std::string& json_path) {
  defa::client::Client client = defa::client::Client::connect(endpoint);
  if (all) {
    names.clear();
    for (const defa::api::Json& e :
         client.experiments().at("experiments").items()) {
      names.push_back(e.at("name").as_string());
    }
  }
  if (names.empty()) {
    std::cerr << "run: no experiment names given (try 'defa_cli list')\n";
    return 2;
  }
  defa::api::Json combined = defa::api::Json::object();
  int failures = 0;
  for (const std::string& name : names) {
    try {
      defa::api::Json reply = client.run_experiment(name);
      std::cout << reply.at("tables").as_string() << "\n";
      combined[name] = reply.at("json");
    } catch (const defa::client::RpcError& e) {
      ++failures;
      std::cerr << name << " failed: " << e.what() << "\n";
    }
  }
  if (!json_path.empty()) {
    defa::api::write_json_file(json_path, names.size() == 1 && combined.size() == 1
                                              ? combined.at(names[0])
                                              : combined);
    std::cout << "wrote " << json_path << "\n";
  }
  if (failures > 0) {
    std::cerr << failures << " of " << names.size() << " experiments failed\n";
    return 1;
  }
  return 0;
}

int cmd_list() {
  defa::api::register_builtin_experiments();
  const defa::api::Registry& registry = defa::api::Registry::instance();
  for (const std::string& name : registry.names()) {
    const defa::api::Experiment* e = registry.find(name);
    std::cout << name << "\n    " << e->title << "\n    " << e->description << "\n";
  }
  std::cout << registry.size() << " experiments\n";
  return 0;
}

int cmd_run(const std::vector<std::string>& args) {
  std::vector<std::string> names;
  std::string json_path;
  std::string connect_endpoint;
  bool all = false;
  int jobs = 1;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--json") {
      if (i + 1 >= args.size()) return usage("defa_cli");
      json_path = args[++i];
    } else if (args[i] == "--connect") {
      if (i + 1 >= args.size()) return usage("defa_cli");
      connect_endpoint = args[++i];
    } else if (args[i] == "--jobs") {
      if (i + 1 >= args.size()) return usage("defa_cli");
      jobs = defa::parse_flag<int>("--jobs", args[++i], 1);
    } else if (args[i] == "--all") {
      all = true;
    } else if (!args[i].empty() && args[i][0] == '-') {
      std::cerr << "unknown option '" << args[i] << "'\n";
      return 2;
    } else {
      names.push_back(args[i]);
    }
  }
  if (!connect_endpoint.empty()) {
    if (jobs > 1) {
      // The server process owns its concurrency; silently ignoring the
      // flag would run something the user didn't ask for.
      std::cerr << "--connect runs experiments in the remote defa_serve "
                   "process: --jobs configures the local run and cannot be "
                   "combined with it\n";
      return 2;
    }
    return cmd_run_remote(connect_endpoint, names, all, json_path);
  }
  defa::api::register_builtin_experiments();
  if (all) names = defa::api::Registry::instance().names();
  if (names.empty()) {
    std::cerr << "run: no experiment names given (try 'defa_cli list')\n";
    return 2;
  }

  // Every experiment runs (failures don't abort the rest); with --jobs > 1
  // they fan out over the shared defa::ThreadPool, buffering tables so
  // output still appears in name order.  The Engine is shared either way,
  // so experiments touching the same benchmark reuse one context.
  defa::api::Engine engine;
  defa::api::Json combined = defa::api::Json::object();
  int failures = 0;
  if (jobs > 1) {
    struct Outcome {
      std::string output;
      defa::api::Json json;
      bool ok = false;
      std::string error;
    };
    std::vector<Outcome> outcomes(names.size());
    defa::ThreadPool::global().run_indexed(
        static_cast<std::int64_t>(names.size()), jobs, [&](std::int64_t i) {
          const auto idx = static_cast<std::size_t>(i);
          std::ostringstream tables;
          Outcome& out = outcomes[idx];
          try {
            out.json = defa::api::run_experiment(engine, names[idx], tables);
            out.ok = true;
          } catch (const std::exception& e) {
            out.error = e.what();
          }
          out.output = tables.str();
        });
    for (std::size_t i = 0; i < names.size(); ++i) {
      std::cout << outcomes[i].output;
      if (outcomes[i].ok) {
        combined[names[i]] = outcomes[i].json;
        std::cout << "\n";
      } else {
        ++failures;
        std::cerr << names[i] << " failed: " << outcomes[i].error << "\n";
      }
    }
  } else {
    // Serial path streams each experiment's tables as it runs.
    for (const std::string& name : names) {
      try {
        combined[name] = defa::api::run_experiment(engine, name, std::cout);
        std::cout << "\n";
      } catch (const std::exception& e) {
        ++failures;
        std::cerr << name << " failed: " << e.what() << "\n";
      }
    }
  }
  if (!json_path.empty()) {
    // A single experiment writes its object directly; several write a map.
    defa::api::write_json_file(json_path, names.size() == 1 && combined.size() == 1
                                              ? combined.at(names[0])
                                              : combined);
    std::cout << "wrote " << json_path << "\n";
  }
  if (failures > 0) {
    std::cerr << failures << " of " << names.size() << " experiments failed\n";
    return 1;
  }
  return 0;
}

int cmd_validate(const std::string& path) {
  const defa::api::Json j = defa::api::read_json_file(path);
  std::cout << path << ": valid JSON ("
            << (j.is_object() ? std::to_string(j.size()) + " top-level keys"
                              : std::string("non-object root"))
            << ")\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage(argv[0]);
  const std::string cmd = argv[1];
  std::vector<std::string> args;
  for (int i = 2; i < argc; ++i) args.emplace_back(argv[i]);

  try {
    if (cmd == "list") return cmd_list();
    if (cmd == "run") return cmd_run(args);
    if (cmd == "validate") {
      if (args.size() != 1) return usage(argv[0]);
      return cmd_validate(args[0]);
    }
    if (cmd == "help" || cmd == "--help" || cmd == "-h") {
      usage(argv[0]);
      return 0;
    }
  } catch (const defa::FlagError& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return usage(argv[0]);
}
