/**
 * @file
 * Entry point of the repository benchmark:
 *
 *   perfbench --workload <headset_gaze|whale_minnows|lossy_replay>
 *             --seed <n> --seconds <s> --trace <0|1>
 *             [--inject-fault] [--revision <rev>]
 *
 * Prints a run record line, then, as its last line, one JSON object
 * {"correct", "attempted", "failed", "metrics"}: the end-to-end
 * metrics untraced, the per-layer metrics traced. DESIGN.md has the
 * workloads, the metric definitions and how they relate, and why
 * BENCHMARK.json lists headset_gaze and lossy_replay but not
 * whale_minnows, which runs on demand only.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>

#include "harness.hh"
#include "simd/tile_kernels.hh"

using namespace perfbench;

namespace {

struct MetricSpec
{
    const char *name;
    const char *unit;
};

// Every name here is also in BENCHMARK.json; a run prints all of its
// mode's list.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"throughput_mps", "MP/s"},
    {"frame_latency_p50_ms", "ms"},
    {"frame_latency_p90_ms", "ms"},
    {"bits_per_pixel", "bits/px"},
    {"peak_rss_mb", "MiB"},
    {"delivered_tile_fraction", "ratio"},
};

constexpr MetricSpec kPerLayer[] = {
    {"failed_frames_ratio", "ratio"},
    {"foveal_intact_rate", "ratio"},
    {"gaze.update_ms", "ms"},
    {"gaze.full_rebuild_ratio", "ratio"},
    {"gaze.saccade_frame_ratio", "ratio"},
    {"core.adjust_ms", "ms"},
    {"core.adjust_ms_1t", "ms"},
    {"core.adjust_scaling", "x"},
    {"core.bypass_tile_ratio", "ratio"},
    {"color.quantize_ms", "ms"},
    {"bd.encode_ms", "ms"},
    {"bd.encode_ms_1t", "ms"},
    {"bd.encode_scaling", "x"},
    {"pool.mean_participants", "count"},
    {"service.queue_wait_p50_ms", "ms"},
    {"service.queue_wait_p99_ms", "ms"},
    {"service.submit_block_ms", "ms"},
    {"service.overhead_ms", "ms"},
    {"service.shard_occupancy_min", "ratio"},
    {"service.shard_occupancy_max", "ratio"},
    {"service.stolen_ratio", "ratio"},
    {"service.queue_peak_depth", "count"},
    {"net.packetize_ms", "ms"},
    {"net.round_ms", "ms"},
    {"net.finalize_ms", "ms"},
    {"net.rounds_mean", "count"},
    {"net.retransmit_byte_ratio", "ratio"},
    {"net.useful_byte_ratio", "ratio"},
    {"net.shed_byte_ratio", "ratio"},
    {"net.rejected_packet_ratio", "ratio"},
    {"net.budget_bytes_per_round_mean", "bytes"},
    {"obs.trace_overhead_ratio", "ratio"},
    {"obs.trace_events", "count"},
    {"obs.trace_dropped", "count"},
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "perfbench: " << why
              << "\nusage: perfbench --workload <headset_gaze|"
                 "whale_minnows|lossy_replay> --seed <n> --seconds <s> "
                 "--trace <0|1> [--inject-fault] [--revision <rev>]\n";
    std::exit(2);
}

Options
parse(int argc, char **argv)
{
    Options o;
    bool haveWorkload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage("missing value for " + a);
            return argv[++i];
        };
        if (a == "--workload") {
            o.workload = value();
            haveWorkload = true;
        } else if (a == "--seed") {
            o.seed = std::stoull(value());
        } else if (a == "--seconds") {
            o.seconds = std::stod(value());
        } else if (a == "--trace") {
            o.trace = value() != "0";
        } else if (a == "--inject-fault") {
            o.injectFault = true;
        } else if (a == "--revision") {
            o.revision = value();
        } else {
            usage("unknown argument " + a);
        }
    }
    if (!haveWorkload)
        usage("--workload is required");
    if (!(o.seconds > 0.0))
        usage("--seconds must be positive");
    return o;
}

/** JSON string literal (the values here are plain ASCII names). */
std::string
quoted(const std::string &s)
{
    std::string q = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            q += '\\';
        q += c;
    }
    return q + "\"";
}

std::string
number(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parse(argc, argv);
    Result res;
    try {
        if (opt.workload == "headset_gaze")
            runHeadsetGaze(opt, res);
        else if (opt.workload == "whale_minnows")
            runWhaleMinnows(opt, res);
        else if (opt.workload == "lossy_replay")
            runLossyReplay(opt, res);
        else
            usage("unknown workload " + opt.workload);
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << opt.workload << ": " << e.what()
                  << "\n";
        return 1;
    }

    std::vector<Metric> metrics;
    if (!opt.trace) {
        for (const MetricSpec &spec : kEndToEnd) {
            const Metric *found = nullptr;
            for (const Metric &m : res.endToEnd)
                if (m.name == spec.name)
                    found = &m;
            if (found == nullptr) {
                std::cerr << "perfbench: " << opt.workload
                          << " did not measure " << spec.name << "\n";
                return 1;
            }
            metrics.push_back({spec.name, found->value, spec.unit});
        }
    } else {
        res.layer("failed_frames_ratio",
                  res.attempted == 0
                      ? 0.0
                      : static_cast<double>(res.failed) /
                            static_cast<double>(res.attempted),
                  "ratio");
        // A layer the workload bypasses does no work there: 0.
        for (const MetricSpec &spec : kPerLayer) {
            double value = 0.0;
            for (const Metric &m : res.perLayer)
                if (m.name == spec.name)
                    value = m.value;
            metrics.push_back({spec.name, value, spec.unit});
        }
    }

    // The run record: what an avx2 / 4-core / seed-7 number came from.
    std::ostringstream rec;
    rec << "{\"run_record\": {\"workload\": " << quoted(opt.workload)
        << ", \"seed\": " << opt.seed
        << ", \"seconds\": " << number(opt.seconds)
        << ", \"trace\": " << (opt.trace ? 1 : 0)
        << ", \"nproc\": " << nproc() << ", \"simd_level\": "
        << quoted(pce::simd::simdLevelName(pce::simd::effectiveSimdLevel(
               pce::simd::activeSimdLevel())))
        << ", \"revision\": " << quoted(opt.revision)
        << ", \"inject_fault\": " << (opt.injectFault ? "true" : "false");
    if (!res.tracePath.empty())
        rec << ", \"trace_file\": " << quoted(res.tracePath);
    for (const auto &[key, value] : res.record)
        rec << ", " << quoted(key) << ": " << number(value);
    rec << "}}";
    std::cout << rec.str() << "\n";

    std::ostringstream line;
    line << "{\"correct\": " << (res.failed == 0 ? "true" : "false")
         << ", \"attempted\": " << res.attempted
         << ", \"failed\": " << res.failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i)
        line << (i ? ", " : "") << quoted(metrics[i].name)
             << ": {\"value\": " << number(metrics[i].value)
             << ", \"unit\": " << quoted(metrics[i].unit) << "}";
    line << "}}";
    std::cout << line.str() << std::endl;
    return 0;
}
