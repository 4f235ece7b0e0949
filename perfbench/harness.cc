#include "harness.hh"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string_view>

#include "obs/trace_export.hh"

namespace perfbench {

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
msBetween(Clock::time_point t0, Clock::time_point t1)
{
    return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

int
nproc()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0)
        return std::max(1, CPU_COUNT(&set));
    return 1;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double
percentile(std::vector<double> samples, double p)
{
    if (samples.empty())
        return std::numeric_limits<double>::quiet_NaN();
    std::sort(samples.begin(), samples.end());
    const double rank = std::ceil(p / 100.0 *
                                  static_cast<double>(samples.size()));
    const std::size_t idx = static_cast<std::size_t>(
        std::clamp(rank, 1.0, static_cast<double>(samples.size())));
    return samples[idx - 1];
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

double
medianBlockMps(const std::vector<double> &durationMs,
               const std::vector<char> &ok, double mpPerItem,
               std::size_t block)
{
    // A run shorter than one block is one block.
    block = std::max<std::size_t>(1, std::min(block, durationMs.size()));
    std::vector<double> rates;
    for (std::size_t b = 0; b + block <= durationMs.size(); b += block) {
        double mp = 0.0, seconds = 0.0;
        for (std::size_t i = b; i < b + block; ++i) {
            seconds += durationMs[i] / 1e3;
            mp += ok[i] ? mpPerItem : 0.0;
        }
        rates.push_back(ratio(mp, seconds));
    }
    return rates.empty() ? 0.0 : percentile(rates, 50);
}

double
medianSetupSeconds(int reps, const std::function<void()> &once)
{
    std::vector<double> times;
    for (int i = 0; i < reps; ++i) {
        const Clock::time_point t0 = Clock::now();
        once();
        times.push_back(secondsSince(t0));
    }
    std::sort(times.begin(), times.end());
    return times[times.size() / 2];
}

const pce::AnalyticDiscriminationModel &
model()
{
    static const pce::AnalyticDiscriminationModel m;
    return m;
}

pce::DisplayGeometry
display(int size)
{
    pce::DisplayGeometry g;
    g.width = size;
    g.height = size;
    g.horizontalFovDeg = 100.0;
    g.fixationX = size / 2.0;
    g.fixationY = size / 2.0;
    return g;
}

void
flipBitFault(const std::string &, std::uint64_t frame,
             pce::EncodedFrame &out)
{
    if (frame % 7 == 3 && !out.bdStream.empty())
        out.bdStream[out.bdStream.size() / 2] ^= 0x08;
}

// ------------------------------------------------------------ tracing

namespace {
constexpr int kTraceRounds = 4;
} // namespace

double
alternateTraced(double seconds,
                const std::function<double(double, bool)> &measure)
{
    pce::obs::Tracer &tracer = pce::obs::Tracer::instance();
    // Sized so no workload's traced sub-windows wrap a ring; drops are
    // still counted and reported as obs.trace_dropped.
    tracer.setCapacityPerThread(std::size_t(1) << 17);
    tracer.reset();
    tracer.nameThread("bench/generator");
    const double sub = seconds / (2 * kTraceRounds);
    std::vector<double> ratios;
    for (int r = 0; r < kTraceRounds; ++r) {
        const double untraced = measure(sub, false);
        pce::obs::setTraceEnabled(true);
        const double traced = measure(sub, true);
        pce::obs::setTraceEnabled(false);
        ratios.push_back(ratio(traced, untraced));
    }
    return percentile(ratios, 50);
}

TraceData
TraceData::collect()
{
    const pce::obs::Tracer &tracer = pce::obs::Tracer::instance();
    TraceData data;
    data.events_ = tracer.collect();
    data.threadNames_ = tracer.threadNames();
    data.recorded_ = tracer.recordedEvents();
    data.dropped_ = tracer.droppedEvents();
    return data;
}

bool
TraceData::save(const std::string &path) const
{
    std::error_code ec;
    std::filesystem::create_directories(
        std::filesystem::path(path).parent_path(), ec);
    std::ofstream os(path, std::ios::trunc);
    if (!os)
        return false;
    pce::obs::writeChromeTrace(os, events_, threadNames_);
    os.flush();
    return static_cast<bool>(os);
}

namespace {

double
eventMs(const pce::obs::TraceEvent &e)
{
    return static_cast<double>(e.endNs - e.beginNs) / 1e6;
}

bool
isEncodeLayerSpan(std::string_view name)
{
    return name == "encode/gaze_update" || name == "encode/adjust" ||
           name == "encode/saccade_bypass" ||
           name == "encode/quantize" || name == "encode/bd";
}

} // namespace

std::vector<double>
TraceData::durations(const std::string &name) const
{
    std::vector<double> out;
    for (const pce::obs::TraceEvent &e : events_)
        if (!e.instant && name == e.name)
            out.push_back(eventMs(e));
    return out;
}

double
TraceData::meanMs(const std::string &name) const
{
    const std::vector<double> d = durations(name);
    if (d.empty())
        return 0.0;
    double sum = 0.0;
    for (double v : d)
        sum += v;
    return sum / static_cast<double>(d.size());
}

std::map<std::pair<std::uint32_t, std::uint64_t>, double>
TraceData::encodeMsByFrame() const
{
    std::map<std::pair<std::uint32_t, std::uint64_t>, double> out;
    for (const pce::obs::TraceEvent &e : events_)
        if (!e.instant && e.frame != pce::obs::kNoFrame &&
            isEncodeLayerSpan(e.name))
            out[{e.stream, e.frame}] += eventMs(e);
    return out;
}

double
TraceData::meanMsForStream(const std::string &name,
                           std::uint32_t stream) const
{
    double sum = 0.0;
    std::size_t n = 0;
    for (const pce::obs::TraceEvent &e : events_)
        if (!e.instant && e.stream == stream && name == e.name) {
            sum += eventMs(e);
            ++n;
        }
    return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

void
serviceLayerMetrics(const pce::ServiceReport &before,
                    const pce::ServiceReport &after,
                    double submitBlockMs, const TraceData &trace,
                    const std::vector<LatencySample> &latencies,
                    Result &out)
{
    const std::vector<double> waits =
        trace.durations("service/queue_wait");
    out.layer("service.queue_wait_p50_ms", percentile(waits, 50), "ms");
    out.layer("service.queue_wait_p99_ms", percentile(waits, 99), "ms");
    out.note("service.queue_wait_samples",
             static_cast<double>(waits.size()));
    out.layer("service.submit_block_ms", submitBlockMs, "ms");

    // Frame latency minus the time the frame spent in the encode
    // layers, averaged over frames both the client and the trace saw.
    const auto encodeMs = trace.encodeMsByFrame();
    double overhead = 0.0;
    std::size_t matched = 0;
    for (const LatencySample &sample : latencies) {
        if (!std::isfinite(sample.ms))
            continue;
        double layers = 0.0;
        bool seen = true;
        for (const FrameKey &key : sample.frames) {
            const auto it = encodeMs.find(key);
            seen = seen && it != encodeMs.end();
            if (seen)
                layers += it->second;
        }
        if (!seen)
            continue;
        overhead += sample.ms - layers;
        ++matched;
    }
    out.layer("service.overhead_ms",
              matched == 0 ? 0.0 : overhead / static_cast<double>(matched),
              "ms");
    out.note("service.overhead_frames", static_cast<double>(matched));

    // Occupancy over the window: busy-time delta over wall-time delta.
    const double wall = after.wallSeconds - before.wallSeconds;
    double occMin = std::numeric_limits<double>::infinity();
    double occMax = 0.0;
    double participants = 0.0;
    std::uint64_t dispatches = 0;
    for (std::size_t i = 0; i < after.shards.size(); ++i) {
        const double busy =
            after.shards[i].busySeconds - before.shards[i].busySeconds;
        const double occ = wall > 0.0 ? busy / wall : 0.0;
        occMin = std::min(occMin, occ);
        occMax = std::max(occMax, occ);
        participants += after.shards[i].poolMeanParticipants *
                        static_cast<double>(after.shards[i].poolDispatches);
        dispatches += after.shards[i].poolDispatches;
    }
    out.layer("service.shard_occupancy_min",
              after.shards.empty() ? 0.0 : occMin, "ratio");
    out.layer("service.shard_occupancy_max", occMax, "ratio");
    const double encoded = static_cast<double>(after.framesEncoded -
                                               before.framesEncoded);
    out.layer("service.stolen_ratio",
              encoded > 0.0
                  ? static_cast<double>(after.stolenFrames -
                                        before.stolenFrames) /
                        encoded
                  : 0.0,
              "ratio");
    out.layer("service.queue_peak_depth",
              static_cast<double>(after.queuePeakDepth), "count");
    // Participants per pool dispatch, over every shard that has a
    // pool (0 when every shard encodes at one participant, poolless).
    out.layer("pool.mean_participants",
              dispatches == 0
                  ? 0.0
                  : participants / static_cast<double>(dispatches),
              "count");
}

void
finishTrace(const Options &opt, const TraceData &trace,
            double overheadRatio, Result &out)
{
    out.layer("obs.trace_overhead_ratio", overheadRatio, "ratio");
    out.layer("obs.trace_events", static_cast<double>(trace.events()),
              "count");
    out.layer("obs.trace_dropped", static_cast<double>(trace.dropped()),
              "count");
    const std::string path = ".bench_build/traces/" + opt.workload +
                             "-seed" + std::to_string(opt.seed) +
                             ".json";
    if (!trace.save(path))
        throw std::runtime_error("cannot write trace " + path);
    out.tracePath = path;
}

} // namespace perfbench
