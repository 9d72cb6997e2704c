// Interactive testbed shell — the User Interface component of the paper's
// Figure 5. Reads Horn clauses, facts, queries, and session commands from
// stdin; works equally well piped:
//
//   $ printf 'parent(a,b).\nanc(X,Y) :- parent(X,Y).\n?- anc(a,W).\n' |
//       ./build/examples/repl
//
// The shell talks through the transport-independent dkb::Client, so the
// same session can run against a remote dkb_server:
//
//   $ repl --connect 127.0.0.1:7070

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <utility>

#include "client/client.h"
#include "client/in_process_client.h"
#include "client/remote_client.h"
#include "common/str_util.h"
#include "testbed/sys_views.h"
#include "testbed/testbed.h"

namespace {

void PrintHelp() {
  std::printf(
      "Enter Horn clauses, facts, or queries; directives start with ':'.\n"
      "  anc(X,Y) :- parent(X,Y).   add a rule to the Workspace DKB\n"
      "  parent(john, mary).        add a fact to the extensional DB\n"
      "  ?- anc(john, W).           compile + execute a D/KB query\n"
      "  :magic on|off              toggle generalized magic sets\n"
      "  :strategy naive|seminaive|native-tc\n"
      "  :rules                     list workspace rules\n"
      "  :retract <rule>            remove a workspace rule\n"
      "  :update                    commit workspace rules to the Stored DKB\n"
      "  :clear                     clear the workspace\n"
      "  :stats                     show last query's timing breakdown\n"
      "  :sql <statement>           run raw SQL against the DBMS layer\n"
      "  \\sys (or :sys)             list the sys.* system views\n"
      "  :slowlog <micros>|off      slow-query log threshold (local only)\n"
      "  :save <path> / :load <path>  persist / restore (local only)\n"
      "  :help                      this text\n"
      "  :quit\n"
      "System views answer plain SQL, e.g.\n"
      "  :sql SELECT query, total_us FROM sys.query_log\n");
}

void PrintSysViews() {
  std::printf("system views (query with :sql SELECT ... FROM <view>):\n");
  for (const auto& def : dkb::testbed::SystemViewDefs()) {
    std::string cols;
    for (size_t i = 0; i < def.schema.num_columns(); ++i) {
      if (i > 0) cols += ", ";
      cols += def.schema.column(i).name;
    }
    std::printf("  %-19s %s\n", def.name.c_str(), def.description.c_str());
    std::printf("  %-19s   (%s)\n", "", cols.c_str());
  }
}

void SetSlowLog(dkb::testbed::Testbed* tb, const std::string& arg) {
  dkb::testbed::SlowQueryLogOptions slow;
  if (arg == "off") {
    slow.threshold_us = -1;
    tb->recorder().SetSlowQueryLog(slow);
    std::printf("slow-query log: off\n");
    return;
  }
  char* end = nullptr;
  long long micros = std::strtoll(arg.c_str(), &end, 10);
  if (end == arg.c_str() || *end != '\0' || micros < 0) {
    std::printf("usage: :slowlog <micros>|off\n");
    return;
  }
  slow.threshold_us = micros;
  tb->recorder().SetSlowQueryLog(slow);
  std::printf("slow-query log: queries over %lld us\n", micros);
}

}  // namespace

int main(int argc, char** argv) {
  std::string connect;
  size_t shards = 1;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--connect" && i + 1 < argc) {
      connect = argv[++i];
    } else if (arg == "--shards" && i + 1 < argc) {
      shards = static_cast<size_t>(std::atoi(argv[++i]));
    } else {
      std::fprintf(stderr,
                   "usage: %s [--connect host:port] [--shards N]\n", argv[0]);
      return 2;
    }
  }

  // Local mode owns a testbed directly (so :save/:load/:slowlog can reach
  // it); remote mode talks to a dkb_server. All session commands go
  // through the same dkb::Client either way.
  std::unique_ptr<dkb::testbed::Testbed> local_tb;
  std::unique_ptr<dkb::Client> client;
  if (connect.empty()) {
    auto tb_or = dkb::testbed::Testbed::Create(
        dkb::testbed::TestbedOptions{}.WithShards(shards));
    if (!tb_or.ok()) {
      std::fprintf(stderr, "init failed: %s\n",
                   tb_or.status().ToString().c_str());
      return 1;
    }
    local_tb = std::move(*tb_or);
    client = std::make_unique<dkb::InProcessClient>(local_tb.get());
  } else {
    auto remote = dkb::RemoteClient::Connect(connect);
    if (!remote.ok()) {
      std::fprintf(stderr, "connect %s failed: %s\n", connect.c_str(),
                   remote.status().ToString().c_str());
      return 1;
    }
    client = std::move(*remote);
    std::printf("connected to %s\n", connect.c_str());
  }

  dkb::testbed::QueryOptions options;
  std::string last_report;

  std::printf("D/KB testbed shell. :help for commands.\n");
  std::string line;
  while (true) {
    std::printf("dkb> ");
    std::fflush(stdout);
    if (!std::getline(std::cin, line)) break;
    std::string input = dkb::StrTrim(line);
    if (input.empty() || input[0] == '%') continue;
    if (input == "\\sys") {
      PrintSysViews();
      continue;
    }

    if (input[0] == ':') {
      if (input == ":quit" || input == ":q") break;
      if (input == ":help") {
        PrintHelp();
      } else if (input == ":sys") {
        PrintSysViews();
      } else if (dkb::StartsWith(input, ":slowlog ")) {
        if (local_tb == nullptr) {
          std::printf(":slowlog is unavailable over --connect\n");
        } else {
          SetSlowLog(local_tb.get(), dkb::StrTrim(input.substr(9)));
        }
      } else if (input == ":rules") {
        auto rules = client->ListRules();
        if (!rules.ok()) {
          std::printf("error: %s\n", rules.status().ToString().c_str());
        } else {
          for (const std::string& rule : *rules) {
            std::printf("  %s\n", rule.c_str());
          }
        }
      } else if (input == ":clear") {
        dkb::Status s = client->ClearWorkspace();
        std::printf("%s\n",
                    s.ok() ? "workspace cleared" : s.ToString().c_str());
      } else if (input == ":update") {
        auto stats = client->UpdateStoredDkb();
        if (!stats.ok()) {
          std::printf("error: %s\n", stats.status().ToString().c_str());
        } else {
          std::printf("stored %lld rules (%lld us)\n",
                      static_cast<long long>(stats->rules_stored),
                      static_cast<long long>(stats->total_us));
        }
      } else if (input == ":magic on") {
        options.use_magic = true;
        std::printf("magic sets: on\n");
      } else if (input == ":magic off") {
        options.use_magic = false;
        std::printf("magic sets: off\n");
      } else if (input == ":strategy naive") {
        options.strategy = dkb::lfp::LfpStrategy::kNaive;
      } else if (input == ":strategy seminaive") {
        options.strategy = dkb::lfp::LfpStrategy::kSemiNaive;
      } else if (input == ":strategy native-tc") {
        options.strategy = dkb::lfp::LfpStrategy::kNativeTc;
      } else if (input == ":stats") {
        if (last_report.empty()) {
          std::printf("no query yet\n");
        } else {
          std::printf("%s", last_report.c_str());
        }
      } else if (dkb::StartsWith(input, ":retract ")) {
        dkb::Status s = client->RetractRule(input.substr(9));
        std::printf("%s\n", s.ok() ? "retracted" : s.ToString().c_str());
      } else if (dkb::StartsWith(input, ":save ")) {
        if (local_tb == nullptr) {
          std::printf(":save is unavailable over --connect\n");
        } else {
          dkb::Status s =
              local_tb->SaveSession(dkb::StrTrim(input.substr(6)));
          std::printf("%s\n", s.ok() ? "saved" : s.ToString().c_str());
        }
      } else if (dkb::StartsWith(input, ":load ")) {
        if (local_tb == nullptr) {
          std::printf(":load is unavailable over --connect\n");
        } else {
          auto loaded = dkb::testbed::Testbed::LoadSession(
              dkb::StrTrim(input.substr(6)));
          if (!loaded.ok()) {
            std::printf("error: %s\n", loaded.status().ToString().c_str());
          } else {
            local_tb = std::move(*loaded);
            client =
                std::make_unique<dkb::InProcessClient>(local_tb.get());
            std::printf("session restored (%zu workspace rules)\n",
                        local_tb->workspace().num_rules());
          }
        }
      } else if (dkb::StartsWith(input, ":sql ")) {
        auto result = client->ExecuteSql(input.substr(5));
        if (!result.ok()) {
          std::printf("error: %s\n", result.status().ToString().c_str());
        } else {
          std::printf("%s", dkb::ResultSetToString(*result).c_str());
        }
      } else {
        std::printf("unknown directive (:help for help)\n");
      }
      continue;
    }

    if (dkb::StartsWith(input, "?-")) {
      // Ask the executing side for the text report so :stats works over
      // any transport.
      auto rs = client->Query(input, options, dkb::net::kReportText);
      if (!rs.ok()) {
        std::printf("error: %s\n", rs.status().ToString().c_str());
        continue;
      }
      last_report = rs->report_text;
      std::printf("%s", dkb::ResultSetToString(*rs).c_str());
      std::printf("(compile %lld us, execute %lld us%s)\n",
                  static_cast<long long>(rs->compile_us),
                  static_cast<long long>(rs->exec_us),
                  rs->from_cache ? ", cached plan" : "");
      continue;
    }

    dkb::Status s = client->Consult(input);
    if (!s.ok()) {
      std::printf("error: %s\n", s.ToString().c_str());
    }
  }
  std::printf("\n");
  return 0;
}
