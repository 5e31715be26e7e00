// hinet_perfbench: the repository benchmark.
//
//   hinet_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                   [--smoke]
//   hinet_perfbench --record FIRST LAST
//
// Runs one workload (flood_stream, alg1_sweep, fault_sweep, service_drain)
// on one thread for about S seconds, checks every output, and prints as
// its last line one JSON object:
//
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end metrics, measured with no
// decorator in place; with --trace 1 untraced and traced iterations
// alternate and the metrics are the per-layer figures of the traced ones,
// plus tracing.overhead_frac.  Lines before the result are informational:
// the host facts, exact counters (`counters: {...}`), notes and, on
// failure, every failed check.
//
// --record prints expected_values.inc rows for seeds FIRST..LAST.
#include <cstdio>
#include <cstring>
#include <exception>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "perfbench.hpp"

namespace {

using namespace perfbench;

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "hinet_perfbench: " << why
            << "\nusage: hinet_perfbench --workload "
               "flood_stream|alg1_sweep|fault_sweep|service_drain "
               "--seed N --seconds S --trace 0|1 [--smoke]\n"
               "       hinet_perfbench --record FIRST LAST\n";
  std::exit(2);
}

std::uint64_t parse_u64(const std::string& flag, const char* text) {
  try {
    std::size_t used = 0;
    const unsigned long long v = std::stoull(text, &used);
    if (used != std::strlen(text) || text[0] == '-') throw 0;
    return v;
  } catch (...) {
    usage("bad value for " + flag + ": '" + text + "'");
  }
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_metrics(const WorkloadResult& r, bool trace, std::ostream& os) {
  std::vector<Metric> m;
  if (!trace) {
    const EndToEnd& e = r.e2e;
    m = {{"setup_s", e.setup_s, "s"},
         {"items_per_s", e.items_per_s, "1/s"},
         {"item_ms_p50", e.item_ms_p50, "ms"},
         {"bytes_per_node", e.bytes_per_node, "B"}};
  } else {
    const LayerReport& l = r.layers;
    m = {{"synthesis.self_ms", l.synthesis_ms, "ms"},
         {"synthesis.share", l.synthesis_share, "frac"},
         {"synthesis.allocs_per_round", l.synthesis_allocs, "count"},
         {"synthesis.rewinds", l.synthesis_rewinds, "count"},
         {"send.self_ms", l.send_ms, "ms"},
         {"send.packets", l.send_packets, "count"},
         {"send.allocs_per_round", l.send_allocs, "count"},
         {"receive.self_ms", l.receive_ms, "ms"},
         {"receive.inbox_views", l.receive_views, "count"},
         {"receive.allocs_per_round", l.receive_allocs, "count"},
         {"engine.self_ms", l.engine_ms, "ms"},
         {"engine.allocs_per_round", l.engine_allocs, "count"},
         {"fault.self_ms", l.fault_ms, "ms"},
         {"channel.self_ms", l.channel_ms, "ms"},
         {"channel.deliver_calls", l.channel_calls, "count"},
         {"channel.kept_ratio", l.channel_kept_ratio, "frac"},
         {"runner.spec_build_ms", l.spec_build_ms, "ms"},
         {"runner.run_ms", l.run_ms, "ms"},
         {"runner.aggregate_ms", l.aggregate_ms, "ms"},
         {"service.pre_publish_ms", l.pre_publish_ms, "ms"},
         {"service.simulate_ms", l.simulate_ms, "ms"},
         {"service.ack_ms", l.ack_ms, "ms"},
         {"service.submit_ms_p50", l.submit_ms_p50, "ms"},
         {"service.job_ms_p50", l.job_ms_p50, "ms"},
         {"service.job_ms_p90", l.job_ms_p90, "ms"},
         {"store.intent_ms", l.intent_ms, "ms"},
         {"store.segment_ms", l.segment_ms, "ms"},
         {"store.index_ms", l.index_ms, "ms"},
         {"store.commit_ms", l.commit_ms, "ms"},
         {"store.fsyncs_per_job", l.fsyncs_per_job, "count"},
         {"store.index_bytes_per_publish", l.index_bytes_per_publish, "B"},
         {"store.serve_ms", l.serve_ms, "ms"},
         {"queue.bytes", l.queue_bytes, "B"},
         {"tracing.overhead_frac", l.overhead_frac, "frac"}};
  }
  os << "{\"correct\": " << (r.correct ? "true" : "false")
     << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < m.size(); ++i) {
    os << (i ? ", " : "") << '"' << m[i].name << "\": {\"value\": "
       << json_number(m[i].value) << ", \"unit\": \"" << m[i].unit << "\"}";
  }
  os << "}}\n";
}

int record(std::uint64_t first, std::uint64_t last) {
  for (std::uint64_t s = first; s <= last; ++s) {
    const auto [sent, delivered] = record_flood_totals(s);
    std::cout << "{" << s << "u, {" << sent << "u, " << delivered << "u}, 0x"
              << std::hex << record_sweep_digest(s, false) << "u, 0x"
              << record_sweep_digest(s, true) << std::dec << "u},"
              << std::endl;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage("missing value for " + a);
      return argv[++i];
    };
    if (a == "--workload") {
      opt.workload = value();
    } else if (a == "--seed") {
      opt.seed = parse_u64(a, value());
      have_seed = true;
    } else if (a == "--seconds") {
      opt.seconds = static_cast<double>(parse_u64(a, value()));
      have_seconds = true;
    } else if (a == "--trace") {
      const std::uint64_t t = parse_u64(a, value());
      if (t > 1) usage("--trace takes 0 or 1");
      opt.trace = t == 1;
      have_trace = true;
    } else if (a == "--smoke") {
      opt.smoke = true;
    } else if (a == "--record") {
      const std::uint64_t first = parse_u64(a, value());
      const std::uint64_t last = parse_u64(a, value());
      return record(first, last);
    } else {
      usage("unknown argument '" + a + "'");
    }
  }
  if (!have_seed || !have_seconds || !have_trace || opt.workload.empty()) {
    usage("--workload, --seed, --seconds and --trace are required");
  }

  WorkloadResult (*run)(const Options&) = nullptr;
  if (opt.workload == "flood_stream") run = run_flood_stream;
  if (opt.workload == "alg1_sweep") run = run_alg1_sweep;
  if (opt.workload == "fault_sweep") run = run_fault_sweep;
  if (opt.workload == "service_drain") run = run_service_drain;
  if (run == nullptr) usage("unknown workload '" + opt.workload + "'");

  std::cout << "host: nproc=" << std::thread::hardware_concurrency()
            << " build=" << PERFBENCH_BUILD_TYPE
            << " compiler=" << PERFBENCH_COMPILER << "\n";
  WorkloadResult result;
  try {
    result = run(opt);
  } catch (const std::exception& e) {
    // A workload that throws has no trustworthy figures: report nothing.
    std::cerr << "hinet_perfbench: " << opt.workload << " failed: " << e.what()
              << "\n";
    return 1;
  }
  for (const std::string& note : result.notes) std::cout << note << "\n";
  std::cout << "item_ms_p90: " << json_number(result.e2e.item_ms_p90) << "\n";
  std::cout << "counters: {";
  for (std::size_t i = 0; i < result.counters.size(); ++i) {
    std::cout << (i ? ", " : "") << '"' << result.counters[i].first
              << "\": " << result.counters[i].second;
  }
  std::cout << "}\n";
  print_metrics(result, opt.trace, std::cout);
  return 0;
}
