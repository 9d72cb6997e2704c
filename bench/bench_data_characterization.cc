// Section 5.2 supplement: the paper characterizes base relations by their
// directed-graph shape (lists, full binary trees, DAGs, cyclic graphs) and
// notes that "the results will obviously be different for other queries and
// data types". This bench runs the same ancestor query across all four data
// types at comparable tuple counts.

#include "bench_setup.h"

namespace dkb::bench {
namespace {

struct DataCase {
  std::string name;
  workload::EdgeSet edges;
  std::string root;
};

}  // namespace

void DataCharacterization(Report* report) {
  report->Banner("Section 5.2 - D/KB data characterization",
                 "SIGMOD'88 D/KB testbed, Section 5.2 (relation types table)",
                 "t_e and iteration counts are shaped by path length and "
                 "fan-out: lists iterate longest, trees/DAGs fan out, cycles "
                 "still terminate");

  const int list_length = SmokeSize(64, 16);
  const int tree_depth = SmokeSize(9, 6);
  const int levels = SmokeSize(16, 6);
  std::vector<DataCase> cases;
  cases.push_back({"lists (8 x " + std::to_string(list_length) + ")",
                   workload::MakeLists(8, list_length), "l0_0"});
  cases.push_back({"binary tree (depth " + std::to_string(tree_depth) + ")",
                   workload::MakeFullBinaryTrees(1, tree_depth), "t0_0"});
  cases.push_back({"dag (" + std::to_string(levels) + " levels x 32)",
                   workload::MakeDag(levels, 32, 1, 7), "g0_0"});
  cases.push_back({"cyclic (dag + 8 cycles)",
                   workload::MakeCyclicGraph(levels, 32, 1, 8, 4, 7), "g0_0"});

  const int kReps = Reps(3, 1);
  Table table({Text("data_type"), Count("tuples"), Count("answers"),
               Count("iterations"), Micros("t_e_seminaive"),
               Micros("t_e_magic")});
  for (DataCase& dc : cases) {
    auto tb = Unwrap(testbed::Testbed::Create(), "create");
    CheckOk(tb->Consult(workload::AncestorRules()), "consult");
    CheckOk(tb->DefineBase("parent",
                           {DataType::kVarchar, DataType::kVarchar}),
            "define");
    CheckOk(tb->AddFacts("parent", dc.edges.ToTuples()), "facts");
    datalog::Atom goal = workload::AncestorQuery(dc.root);

    testbed::QueryOptions semi = testbed::QueryOptions::SemiNaive();
    testbed::QueryOptions magic = testbed::QueryOptions::Magic();
    size_t answers = 0;
    int64_t iterations = 0;
    int64_t t_semi = MedianMicros(kReps, [&]() {
      auto outcome = Unwrap(tb->Query(goal, semi), "query");
      answers = outcome.result.rows.size();
      iterations = outcome.report.exec.iterations;
      return outcome.report.exec.t_total_us;
    });
    int64_t t_magic = MedianMicros(kReps, [&]() {
      return Unwrap(tb->Query(goal, magic), "magic query").report.exec.t_total_us;
    });
    table.Row({dc.name, dc.edges.num_tuples(), answers, iterations, t_semi,
               t_magic});
  }
  report->Add(std::move(table));
}

}  // namespace dkb::bench
