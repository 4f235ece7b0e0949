/**
 * @file
 * Shared machinery of the repository benchmark: command line, the
 * result line, percentiles, set-up timing, the run record, and the
 * trace analysis every workload's traced run uses. The workloads
 * themselves live in one file each (headset_gaze.cc, whale_minnows.cc,
 * lossy_replay.cc); DESIGN.md says why each exists and what it should
 * move.
 */

#ifndef PCE_PERFBENCH_HARNESS_HH
#define PCE_PERFBENCH_HARNESS_HH

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/trace.hh"
#include "perception/discrimination.hh"
#include "perception/display.hh"
#include "service/encode_service.hh"

namespace perfbench {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point t0);
double msBetween(Clock::time_point t0, Clock::time_point t1);

/** Parsed command line. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Self-test only: flip one bit of some encoded frames through
     *  ServiceParams::postEncodeFaultHook, so the gate must fail. */
    bool injectFault = false;
    /** Source revision stamped into the run record. */
    std::string revision = "unknown";
};

/** Online cores this process may run on (sched_getaffinity). */
int nproc();

/** Peak resident set size of this process so far, MiB. */
double peakRssMb();

/** One printed metric. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/**
 * Everything one run reports. `endToEnd` is printed by the untraced
 * run, `perLayer` by the traced one; `record` holds the counts behind
 * the numbers (frames, samples per percentile) for the run record.
 */
struct Result
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> endToEnd;
    std::vector<Metric> perLayer;
    std::vector<std::pair<std::string, double>> record;
    /** The traced run's trace file (empty when untraced). */
    std::string tracePath;

    void e2e(const std::string &name, double value,
             const std::string &unit)
    { endToEnd.push_back({name, value, unit}); }
    void layer(const std::string &name, double value,
               const std::string &unit)
    { perLayer.push_back({name, value, unit}); }
    void note(const std::string &key, double value)
    { record.emplace_back(key, value); }
};

/** @p num / @p den, 0 when @p den is not positive. */
double ratio(double num, double den);

/**
 * Throughput of a run of equal-sized items (stereo pairs, delivered
 * frames) that is robust to bursts of interference from other tenants
 * of the host: the items are cut into consecutive blocks of @p block,
 * each block's rate is its megapixels completed over its summed
 * durations, and the median block rate is returned (one block when
 * there are fewer items than @p block). A failed item (@p ok false)
 * adds its duration but no pixels.
 */
double medianBlockMps(const std::vector<double> &durationMs,
                      const std::vector<char> &ok, double mpPerItem,
                      std::size_t block);

/**
 * Nearest-rank percentile (@p p in [0, 100]) of @p samples. Failed
 * frames enter as +infinity, so they count as later than any limit.
 */
double percentile(std::vector<double> samples, double p);

/**
 * Run @p once @p reps times, timing each run, and return the median
 * time in seconds. A workload rebuilds its whole program state (service,
 * streams, warm-up) in @p once, keeping the last build for the
 * measured window.
 */
double medianSetupSeconds(int reps, const std::function<void()> &once);

/** The discrimination model every workload encodes with. */
const pce::AnalyticDiscriminationModel &model();

/** Square display of @p size pixels, fixation centered. */
pce::DisplayGeometry display(int size);

/** The fault the self-test injects: flip bit 3 of the stream's middle
 *  byte on every 7th frame of each stream. */
void flipBitFault(const std::string &stream, std::uint64_t frame,
                  pce::EncodedFrame &out);

/** Spans gathered by a traced window, grouped for the layer metrics. */
class TraceData
{
  public:
    /** What the global tracer's rings hold (tracing must be off). */
    static TraceData collect();

    /** Write the collected events as a Chrome trace (Perfetto loads
     *  it). Returns false when the file cannot be written. */
    bool save(const std::string &path) const;

    /** Durations in ms of every span called @p name. */
    std::vector<double> durations(const std::string &name) const;

    /** Mean duration in ms of spans called @p name (0 when none). */
    double meanMs(const std::string &name) const;

    /**
     * Per-frame encode time in ms, keyed by (stream trace id, stream
     * frame index): the summed durations of the frame's top-level
     * encode spans (gaze update, adjust or saccade bypass, quantize,
     * BD encode), i.e. the gaze + core + color + bd layers.
     */
    std::map<std::pair<std::uint32_t, std::uint64_t>, double>
    encodeMsByFrame() const;

    /** Mean duration in ms of the encode span @p name over frames of
     *  stream @p stream only. */
    double meanMsForStream(const std::string &name,
                           std::uint32_t stream) const;

    std::uint64_t events() const { return recorded_; }
    std::uint64_t dropped() const { return dropped_; }

  private:
    std::vector<pce::obs::TraceEvent> events_;
    std::vector<std::pair<std::uint32_t, std::string>> threadNames_;
    std::uint64_t recorded_ = 0;
    std::uint64_t dropped_ = 0;
};

/**
 * The traced run's measured phase: kTraceRounds rounds of one untraced
 * and one traced sub-window, @p seconds in all. Alternating cancels the
 * host's slow speed drift out of the overhead ratio. @p measure runs one
 * sub-window (its length, whether it is traced) and returns its
 * throughput. The tracer's rings are emptied first and tracing is on
 * only inside traced sub-windows, so the rings end up holding exactly
 * their spans. Returns the median over the rounds of traced over
 * untraced throughput (obs.trace_overhead_ratio).
 */
double alternateTraced(double seconds,
                       const std::function<double(double, bool)> &measure);

/** A frame's trace key: (stream trace id, stream frame index). */
using FrameKey = std::pair<std::uint32_t, std::uint64_t>;

/** One client-side latency sample and the encoded frames it covers
 *  (a stereo pair covers two). */
struct LatencySample
{
    double ms = 0.0;
    std::vector<FrameKey> frames;
};

/**
 * The service-layer metrics (`service.*`, `pool.mean_participants`)
 * of a traced window, from the reports taken at its start and end,
 * the window's trace, and the client's per-frame latencies.
 */
void serviceLayerMetrics(const pce::ServiceReport &before,
                         const pce::ServiceReport &after,
                         double submitBlockMs, const TraceData &trace,
                         const std::vector<LatencySample> &latencies,
                         Result &out);

/** Write the traced run's trace file and report the obs metrics. */
void finishTrace(const Options &opt, const TraceData &trace,
                 double overheadRatio, Result &out);

// The workloads: each fills @p out for opt.trace's mode.
void runHeadsetGaze(const Options &opt, Result &out);
void runWhaleMinnows(const Options &opt, Result &out);
void runLossyReplay(const Options &opt, Result &out);

} // namespace perfbench

#endif // PCE_PERFBENCH_HARNESS_HH
