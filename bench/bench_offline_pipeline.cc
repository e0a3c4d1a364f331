// Fully parallel offline pipeline: wall clock and speedup of every offline
// stage — mining (level-synchronous pattern growth), matching (one
// match-and-commit task per metagraph, each committing one run)
// and finalize (the Seal() merge of the runs into the store plus its
// candidate postings) — vs. the serial baseline on the synthetic
// Facebook benchmark graph, for 1/2/4/8 worker threads.
//
// Also verifies the determinism contract on every run: whatever the
// thread count, the serialized index must be byte-identical to the
// serial build and the mined set must be identical to the serial miner's.
//
// Flags/env: --threads is ignored here (the sweep sets its own counts);
// METAPROX_BENCH_SCALE=full for paper-sized graphs.
#include <cstdio>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "util/table_printer.h"
#include "util/thread_pool.h"

using namespace metaprox;         // NOLINT
using namespace metaprox::bench;  // NOLINT

namespace {

struct RunResult {
  double mine = 0.0;
  double match = 0.0;
  double finalize = 0.0;
  size_t num_metagraphs = 0;
  std::string serialized;
};

RunResult RunOffline(unsigned threads) {
  SetBenchThreads(threads);
  Bundle b = MakeFacebook(5, 450, 1200);  // Mine() runs inside MakeFacebook
  b.engine->MatchAll();

  RunResult r;
  r.mine = b.engine->timings().mine_seconds;
  r.match = b.engine->timings().match_seconds;
  r.finalize = b.engine->timings().finalize_seconds;
  r.num_metagraphs = b.engine->metagraphs().size();
  std::ostringstream serialized;
  auto status = b.engine->index().WriteTo(serialized);
  if (!status.ok()) {
    std::fprintf(stderr, "index serialization failed: %s\n",
                 status.ToString().c_str());
    std::exit(1);
  }
  r.serialized = serialized.str();
  return r;
}

std::string Fmt(double seconds) { return util::FormatDouble(seconds, 2); }

std::string Speedup(double serial, double now) {
  if (now <= 0.0) return "-";
  return util::FormatDouble(serial / now, 2) + "x";
}

}  // namespace

int main(int argc, char** argv) {
  // --threads is ignored (the sweep sets its own); --json and
  // METAPROX_BENCH_JSON select the machine-readable report.
  ParseBenchArgs(argc, argv);
  std::printf("== parallel offline pipeline: mine + match + finalize ==\n");
  std::printf("hardware concurrency: %zu\n\n", util::ResolveNumThreads(0));

  const std::vector<unsigned> thread_counts = {1, 2, 4, 8};
  util::TablePrinter threads_table(
      {"threads", "mine (s)", "match (s)", "finalize (s)", "total (s)",
       "speedup", "index identical"});
  JsonReport report("offline_pipeline");

  RunResult serial;
  for (unsigned threads : thread_counts) {
    RunResult r = RunOffline(threads);
    bool identical = true;
    if (threads == 1) {
      serial = r;
    } else {
      identical = r.serialized == serial.serialized &&
                  r.num_metagraphs == serial.num_metagraphs;
    }
    const double total = r.mine + r.match + r.finalize;
    const double serial_total = serial.mine + serial.match + serial.finalize;
    threads_table.AddRow({std::to_string(threads), Fmt(r.mine), Fmt(r.match),
                          Fmt(r.finalize), Fmt(total),
                          Speedup(serial_total, total),
                          identical ? "yes" : "NO — BUG"});
    report.BeginRecord()
        .Str("sweep", "threads")
        .Num("threads", threads)
        .Num("mine_seconds", r.mine)
        .Num("match_seconds", r.match)
        .Num("finalize_seconds", r.finalize)
        .Num("total_seconds", total)
        .Num("speedup", total > 0.0 ? serial_total / total : 0.0)
        .Num("identical", identical ? 1 : 0);
    if (!identical) {
      std::fprintf(stderr,
                   "FATAL: offline phase with %u threads differs from "
                   "serial\n",
                   threads);
      return 1;
    }
  }
  threads_table.Print(std::cout);

  if (!report.WriteIfRequested()) return 1;

  std::printf(
      "\nexpected shape: total speedup monotone up to the core count; the "
      "\"index identical\" column must read yes everywhere.\n");
  return 0;
}
