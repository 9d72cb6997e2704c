// dkb_profile — run a .dkb program's queries and emit the QueryReport.
//
//   $ dkb_profile examples/programs/same_generation.dkb
//   query: sg('a', W)
//   strategy: semi-naive  magic: off  parallelism: 1  cache: miss
//   ...
//
//   $ dkb_profile --format json --magic examples/programs/same_generation.dkb
//   {"query": "sg('a', W)", "strategy": "semi-naive", ...}
//
//   $ dkb_profile --format chrome -o trace.json program.dkb
//   (load trace.json in chrome://tracing or Perfetto)
//
//   $ dkb_profile --connect 127.0.0.1:7070 program.dkb
//   (same run, but against a dkb_server; the server executes and renders)
//
// Rules and facts are consulted into a fresh testbed; every `?-` query in
// the file (plus any --query goals) runs with tracing enabled, so the
// report carries the full span tree: per-phase compilation, per-node LFP
// with per-iteration delta cardinalities, and final answer retrieval.
//
// Exit status: 0 success; 1 a query failed; 2 usage or parse failure.

#include <cstdint>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "client/client.h"
#include "client/in_process_client.h"
#include "client/remote_client.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "datalog/ast.h"
#include "datalog/parser.h"

namespace {

using dkb::testbed::ExplainMode;
using dkb::testbed::QueryOptions;

enum class Format { kText, kJson, kChrome };

struct CliOptions {
  Format format = Format::kText;
  bool plan_only = false;
  bool metrics = false;
  std::vector<std::string> sys_views;
  bool use_magic = false;
  bool supplementary = false;
  bool adaptive = false;
  int parallelism = 1;
  std::string strategy = "semi-naive";
  std::string output_path;
  std::vector<std::string> extra_queries;
  std::string program_path;
  std::string connect;  // empty = in-process
};

int Usage() {
  std::cerr
      << "usage: dkb_profile [--format text|json|chrome] [-o FILE]\n"
      << "                   [--query GOAL]... [--plan] [--metrics]\n"
      << "                   [--sys VIEW]...  (dump sys.* views afterwards)\n"
      << "                   [--magic] [--supplementary] [--adaptive]\n"
      << "                   [--strategy naive|semi-naive|native-tc]\n"
      << "                   [--parallelism N]\n"
      << "                   [--connect host:port]  (run against dkb_server)\n"
      << "                   <program.dkb>\n";
  return 2;
}

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *out = buffer.str();
  return true;
}

bool ParseCli(int argc, char** argv, CliOptions* cli) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&](std::string* out) {
      if (i + 1 >= argc) return false;
      *out = argv[++i];
      return true;
    };
    std::string value;
    if (arg == "--format") {
      if (!next(&value)) return false;
      if (value == "text") {
        cli->format = Format::kText;
      } else if (value == "json") {
        cli->format = Format::kJson;
      } else if (value == "chrome") {
        cli->format = Format::kChrome;
      } else {
        return false;
      }
    } else if (arg == "-o" || arg == "--output") {
      if (!next(&cli->output_path)) return false;
    } else if (arg == "--query") {
      if (!next(&value)) return false;
      cli->extra_queries.push_back(value);
    } else if (arg == "--plan") {
      cli->plan_only = true;
    } else if (arg == "--metrics") {
      cli->metrics = true;
    } else if (arg == "--sys") {
      if (!next(&value)) return false;
      // Accept both "sys.query_log" and the bare "query_log".
      if (value.rfind("sys.", 0) != 0) value = "sys." + value;
      cli->sys_views.push_back(value);
    } else if (arg == "--magic") {
      cli->use_magic = true;
    } else if (arg == "--supplementary") {
      cli->use_magic = true;
      cli->supplementary = true;
    } else if (arg == "--adaptive") {
      cli->adaptive = true;
    } else if (arg == "--strategy") {
      if (!next(&cli->strategy)) return false;
    } else if (arg == "--parallelism") {
      if (!next(&value)) return false;
      cli->parallelism = std::atoi(value.c_str());
    } else if (arg == "--connect") {
      if (!next(&cli->connect)) return false;
    } else if (arg == "--help" || arg == "-h") {
      Usage();
      std::exit(0);
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "unknown option: " << arg << "\n";
      return false;
    } else if (cli->program_path.empty()) {
      cli->program_path = arg;
    } else {
      return false;  // one program file
    }
  }
  return !cli->program_path.empty();
}

bool ResolveStrategy(const std::string& name, dkb::lfp::LfpStrategy* out) {
  if (name == "naive") {
    *out = dkb::lfp::LfpStrategy::kNaive;
  } else if (name == "semi-naive") {
    *out = dkb::lfp::LfpStrategy::kSemiNaive;
  } else if (name == "native-tc") {
    *out = dkb::lfp::LfpStrategy::kNativeTc;
  } else {
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions cli;
  if (!ParseCli(argc, argv, &cli)) return Usage();

  std::string text;
  if (!ReadFile(cli.program_path, &text)) {
    std::cerr << "cannot read " << cli.program_path << "\n";
    return 2;
  }
  auto program = dkb::datalog::ParseProgram(text);
  if (!program.ok()) {
    std::cerr << cli.program_path
              << ": parse error: " << program.status().ToString() << "\n";
    return 2;
  }

  // Consult rules and facts only — Consult() rejects embedded queries, and
  // the queries are what we run (and profile) below.
  std::string consult_text;
  for (const dkb::datalog::Rule& rule : program->rules) {
    consult_text += rule.ToString() + "\n";
  }
  for (const dkb::datalog::Rule& fact : program->facts) {
    consult_text += fact.ToString() + "\n";
  }

  std::vector<dkb::datalog::Atom> goals = program->queries;
  for (const std::string& q : cli.extra_queries) {
    auto goal = dkb::datalog::ParseQuery(q);
    if (!goal.ok()) {
      std::cerr << "bad --query goal '" << q
                << "': " << goal.status().ToString() << "\n";
      return 2;
    }
    goals.push_back(std::move(goal).value());
  }
  if (goals.empty()) {
    std::cerr << cli.program_path
              << ": no queries (add a `?- goal.` line or pass --query)\n";
    return 2;
  }

  QueryOptions options;
  options.use_magic = cli.use_magic;
  options.supplementary = cli.supplementary;
  options.adaptive_magic = cli.adaptive;
  options.WithParallelism(cli.parallelism);
  options.explain = cli.plan_only ? ExplainMode::kPlan : ExplainMode::kNone;
  options.collect_trace = true;
  if (!ResolveStrategy(cli.strategy, &options.strategy)) {
    std::cerr << "unknown --strategy: " << cli.strategy << "\n";
    return Usage();
  }

  // One transport-independent client: in-process by default, remote with
  // --connect. Everything below this point is identical either way.
  std::unique_ptr<dkb::Client> client;
  if (cli.connect.empty()) {
    auto local = dkb::InProcessClient::Create();
    if (!local.ok()) {
      std::cerr << "testbed init failed: " << local.status().ToString()
                << "\n";
      return 1;
    }
    client = std::move(*local);
  } else {
    auto remote = dkb::RemoteClient::Connect(cli.connect);
    if (!remote.ok()) {
      std::cerr << "connect " << cli.connect << " failed: "
                << remote.status().ToString() << "\n";
      return 1;
    }
    client = std::move(*remote);
  }

  if (!consult_text.empty()) {
    dkb::Status consulted = client->Consult(consult_text);
    if (!consulted.ok()) {
      std::cerr << cli.program_path
                << ": consult failed: " << consulted.ToString() << "\n";
      return 1;
    }
  }

  // The executing side renders the full QueryReport (plan, phase table,
  // span tree) in the format we will print. Since protocol v2 the span
  // tree itself also comes back as values (rs->trace) — for the pure
  // trace formats (chrome) we render that locally, which over --connect
  // includes the server's net.* request spans around the engine hierarchy.
  uint8_t report_formats = dkb::net::kReportText;
  if (cli.format == Format::kJson) report_formats = dkb::net::kReportJson;
  if (cli.format == Format::kChrome) report_formats = dkb::net::kReportChrome;

  std::vector<std::string> rendered;
  for (const dkb::datalog::Atom& goal : goals) {
    auto rs = client->Query(goal.ToString(), options, report_formats);
    if (!rs.ok()) {
      std::cerr << "query " << goal.ToString()
                << " failed: " << rs.status().ToString() << "\n";
      return 1;
    }
    switch (cli.format) {
      case Format::kText:
        rendered.push_back(rs->report_text);
        break;
      case Format::kJson:
        rendered.push_back(rs->report_json);
        break;
      case Format::kChrome:
        rendered.push_back(rs->trace != nullptr
                               ? dkb::trace::RenderChromeTrace(*rs->trace)
                               : rs->report_chrome);
        break;
    }
  }

  std::string out;
  if (cli.format == Format::kText) {
    for (size_t i = 0; i < rendered.size(); ++i) {
      if (i > 0) out += "\n";
      out += rendered[i];
    }
    if (cli.metrics) {
      out += "\nmetrics:\n" + dkb::metrics::GlobalMetrics().SnapshotJson() +
             "\n";
    }
  } else {
    // json/chrome: one object for a single query, else an array. --metrics
    // wraps the reports in {"reports": ..., "metrics": ...}.
    std::string body;
    if (rendered.size() == 1) {
      body = rendered[0];
    } else {
      body = "[";
      for (size_t i = 0; i < rendered.size(); ++i) {
        if (i > 0) body += ", ";
        body += rendered[i];
      }
      body += "]";
    }
    if (cli.metrics) {
      out = "{\"reports\": " + body + ", \"metrics\": " +
            dkb::metrics::GlobalMetrics().SnapshotJson() + "}\n";
    } else {
      out = body + "\n";
    }
  }

  // --sys: dump the requested system views through the normal SQL path,
  // after the profiled queries so sys.query_log shows them.
  for (const std::string& view : cli.sys_views) {
    auto rows = client->ExecuteSql("SELECT * FROM " + view);
    if (!rows.ok()) {
      std::cerr << view << ": " << rows.status().ToString() << "\n";
      return 1;
    }
    out += "\n" + view + ":\n" + dkb::ResultSetToString(*rows);
  }

  if (cli.output_path.empty()) {
    std::cout << out;
  } else {
    std::ofstream file(cli.output_path, std::ios::trunc);
    if (!file) {
      std::cerr << "cannot open " << cli.output_path << " for writing\n";
      return 1;
    }
    file << out;
    if (!file.flush()) {
      std::cerr << "write to " << cli.output_path << " failed\n";
      return 1;
    }
  }
  return 0;
}
