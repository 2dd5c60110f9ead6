// perfbench — one run of one workload of the end-to-end benchmark.
//
//   perfbench --workload <batch_campaign|train_lstm|serve_zipf> --seed <n>
//             --seconds <s> --trace <0|1> --workdir <dir> [--trace-out <csv>]
//
// Every run sets up the paper's workload from the seed and runs its batch,
// train and serve stages, in rounds, the workload's own stage twice per
// round (see run_rounds). Untraced runs (--trace 0) set up kSetupReps times and report
// the end-to-end metrics; traced runs (--trace 1) set up once, record spans
// and report per-layer metrics. The last line of standard output is the
// JSON result; the exit code is 0 only when every correctness check held.
#include <malloc.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <stdexcept>

#include "workload.hpp"

namespace perfbench {
namespace {

/// The stage each workload gives its measuring time to.
const char* primary_stage(const std::string& workload) {
  if (workload == "batch_campaign") return "batch";
  if (workload == "train_lstm") return "train";
  if (workload == "serve_zipf") return "serve";
  return nullptr;
}

Args parse_args(int argc, char** argv, std::string* trace_out) {
  Args a;
  bool have_workload = false, have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i], value = argv[i + 1];
    if (key == "--workload") {
      a.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      a.seed = std::stoull(value);
      have_seed = true;
    } else if (key == "--seconds") {
      a.seconds = std::stod(value);
    } else if (key == "--trace") {
      a.trace = value == "1";
    } else if (key == "--workdir") {
      a.workdir = value;
    } else if (key == "--trace-out") {
      *trace_out = value;
    } else {
      throw std::invalid_argument("unknown argument " + key);
    }
  }
  if (argc % 2 == 0) throw std::invalid_argument("arguments come in --key value pairs");
  if (!have_workload || !primary_stage(a.workload))
    throw std::invalid_argument("--workload must be batch_campaign, train_lstm or serve_zipf");
  if (!have_seed) throw std::invalid_argument("--seed is required");
  if (a.workdir.empty()) throw std::invalid_argument("--workdir is required");
  if (!(a.seconds > 0.0)) throw std::invalid_argument("--seconds must be positive");
  return a;
}

/// Untraced runs repeat rounds of (batch, train, serve) steps, the
/// workload's own stage stepping twice per round, until --seconds have
/// passed and at least kMinRounds rounds ran.
constexpr int kMinRounds = 2;

void run_rounds(Setup& setup, const Args& args, const std::string& primary, Report& report) {
  std::vector<std::pair<std::string, std::unique_ptr<Stage>>> stages;
  stages.emplace_back("batch", batch_stage(setup));
  stages.emplace_back("train", train_stage(setup));
  stages.emplace_back("serve", serve_stage(setup, args));
  std::map<std::string, double> busy;
  const double t0 = now_s();
  int rounds = 0;
  while (rounds < kMinRounds || now_s() - t0 < args.seconds) {
    for (auto& [name, stage] : stages) {
      for (int rep = 0; rep < (name == primary ? 2 : 1); ++rep) {
        const double a = now_s();
        stage->step();
        busy[name] += now_s() - a;
      }
    }
    ++rounds;
  }
  std::printf("rounds: %d in %.2f s (batch %.2f s, train %.2f s, serve %.2f s)\n", rounds,
              now_s() - t0, busy["batch"], busy["train"], busy["serve"]);
  for (auto& [name, stage] : stages) stage->finish(report);
  std::printf("peak RSS %.1f MiB\n", peak_rss_mb());
}

void add_setup_layers(const Setup& s, Report& report) {
  report.add("core.generate_pair_s", median(s.generate_pair_s), "s");
  report.add("core.write_shards_s", median(s.write_shards_s), "s");
  report.add("core.label_pair_s", median(s.label_pair_s), "s");
  report.add("core.assemble_s", s.assemble_s, "s");
}

void add_breakdown(const Tracer& tracer, double t0, double t1, Report& report) {
  const Tracer::Breakdown b = tracer.breakdown(t0, t1);
  double shares = b.remainder_s;
  for (const char* layer : kLayers) {
    report.add(std::string("self.") + layer + "_s", b.self_s.at(layer), "s");
    report.add(std::string("share.") + layer + "_s", b.share_s.at(layer), "s");
    shares += b.share_s.at(layer);
    std::printf("layer %-9s self %8.3f s  wall share %8.3f s\n", layer, b.self_s.at(layer),
                b.share_s.at(layer));
  }
  std::printf("layer remainder            wall share %8.3f s  (shares sum %.3f s of %.3f s wall)\n",
              b.remainder_s, shares, b.wall_s);
  report.add("share.remainder_s", b.remainder_s, "s");
  report.add("trace.wall_s", b.wall_s, "s");
  report.add("trace.spans", static_cast<double>(tracer.size()), "count");
  report.check(std::fabs(shares - b.wall_s) <= 1e-6 * b.wall_s + 1e-9,
               "trace: layer wall shares plus remainder add up to the wall time");
}

void print_result(const Report& report) {
  std::string out = "{\"correct\": ";
  out += report.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(report.attempted);
  out += ", \"failed\": " + std::to_string(report.failed);
  out += ", \"metrics\": {";
  char buf[512];
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i ? ", " : "", m.name.c_str(), m.value, m.unit.c_str());
    out += buf;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

int run(int argc, char** argv) {
  std::string trace_out;
  const Args args = parse_args(argc, argv, &trace_out);
  print_environment(args);
  std::filesystem::create_directories(args.workdir);
  const std::string primary = primary_stage(args.workload);

  Report report;
  Tracer tracer(args.trace);
  if (!args.trace) {
    std::unique_ptr<Setup> setup;
    const double setup_s = median_setup_s(kSetupReps, [&](std::size_t i) {
      setup.reset();
      // Hand the freed heap back to the OS, so the peak resident set is that
      // of one set-up and the run, not of the heap the repeats leave behind.
      malloc_trim(0);
      const double t0 = now_s();
      setup = make_setup(args, tracer);
      std::printf("setup %zu: %.3f s, peak RSS so far %.1f MiB\n", i, now_s() - t0,
                  peak_rss_mb());
    });
    run_rounds(*setup, args, primary, report);
    report.add("setup_s", setup_s, "s");
    report.add("peak_rss_mb", peak_rss_mb(), "MiB");
  } else {
    const double t0 = now_s();
    std::unique_ptr<Setup> setup = make_setup(args, tracer);
    add_setup_layers(*setup, report);
    trace_batch(*setup, tracer, report);
    trace_train(*setup, tracer, report);
    trace_serve(*setup, args, tracer, report);
    setup.reset();
    const double t1 = now_s();
    add_breakdown(tracer, t0, t1, report);
    const double overhead = report.overhead.at(primary);
    std::printf("trace: overhead on the %s stage %+.2f%% (traced vs untraced)\n",
                primary.c_str(), overhead * 100.0);
    report.add("trace.overhead_frac", overhead, "ratio");
    if (!trace_out.empty()) {
      tracer.write_csv(trace_out);
      std::printf("trace: %zu spans written to %s\n", tracer.size(), trace_out.c_str());
    }
  }
  std::filesystem::remove_all(args.workdir);

  for (const Metric& m : report.metrics)
    if (!std::isfinite(m.value)) report.check(false, "metric " + m.name + " is finite");
  print_result(report);
  return report.correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
