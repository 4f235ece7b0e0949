/**
 * @file
 * whale_minnows: one 2048x2048 static stream (the whale) and sixteen
 * 128x128 static streams (the minnows) on a service with one shard per
 * core and one participant per frame. Every stream is double-buffered
 * and one generator thread drives them all, polling so it never waits
 * on one stream while another could be fed. Minnows keep submitting
 * until the whale's last frame is collected. The load is skewed across
 * hash-homed shards, so stealing and queueing behind whale frames are
 * what this workload measures.
 */

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <memory>

#include "bd/bd_codec.hh"
#include "common/integrity.hh"
#include "harness.hh"
#include "render/scenes.hh"

namespace perfbench {

namespace {

constexpr int kWhaleSize = 2048;
constexpr int kMinnowSize = 128;
constexpr int kMinnows = 16;
constexpr int kWhaleFrames = 2;   ///< distinct whale inputs, cycled
constexpr int kMinnowFrames = 4;  ///< distinct inputs per minnow
constexpr int kDepth = 2;         ///< ServiceParams::streamDepth default
constexpr int kSetupReps = 5;

/** One stream's inputs and their reference CRCs. */
struct StreamInput
{
    std::string name;
    int size = 0;
    std::vector<pce::ImageF> frames;
    std::vector<std::uint32_t> refCrc;
    double refBits = 0.0;
    bool whale = false;
};

struct Inputs
{
    std::vector<StreamInput> streams;  ///< [0] is the whale
    pce::EccentricityMap whaleEcc{display(kWhaleSize)};
    pce::EccentricityMap minnowEcc{display(kMinnowSize)};
    bool lossless = true;
};

/**
 * Minnow stream names, picked so every shard homes the same number of
 * minnows (EncodeService::shardForName). The hash of plain "minnow<i>"
 * names happens to home nine of sixteen on one shard and one on
 * another; which shard the whale shares, and with how many minnows,
 * then decides whether the minnows' p99 sits in the wait-behind-the-
 * whale mode or just below it. With the minnows spread evenly the
 * whale is the only skew, and a quarter of the minnows (at four
 * shards) wait behind it.
 */
std::vector<std::string>
minnowNames(std::size_t shards)
{
    const int perShard =
        (kMinnows + static_cast<int>(shards) - 1) / static_cast<int>(shards);
    std::vector<int> homed(shards, 0);
    std::vector<std::string> names;
    for (int i = 0; static_cast<int>(names.size()) < kMinnows; ++i) {
        std::string name = "minnow" + std::to_string(i);
        int &n = homed[pce::EncodeService::shardForName(name, shards)];
        if (n < perShard) {
            ++n;
            names.push_back(std::move(name));
        }
    }
    return names;
}

std::unique_ptr<Inputs>
makeInputs(std::uint64_t seed)
{
    auto in = std::make_unique<Inputs>();
    const std::vector<pce::SceneId> &scenes = pce::allScenes();
    const std::vector<std::string> minnows =
        minnowNames(static_cast<std::size_t>(nproc()));
    for (int s = 0; s <= kMinnows; ++s) {
        StreamInput st;
        st.whale = s == 0;
        st.size = st.whale ? kWhaleSize : kMinnowSize;
        st.name = st.whale ? "whale"
                           : minnows[static_cast<std::size_t>(s - 1)];
        const int frames = st.whale ? kWhaleFrames : kMinnowFrames;
        for (int k = 0; k < frames; ++k) {
            pce::RenderOptions ro;
            ro.width = st.size;
            ro.height = st.size;
            // The seed varies noise textures, not the view.
            ro.time = 0.5 * s + k / 72.0;
            ro.seed = seed + static_cast<std::uint64_t>(s);
            st.frames.push_back(pce::renderScene(
                st.whale ? pce::SceneId::Skyline
                         : scenes[static_cast<std::size_t>(s) % scenes.size()],
                ro));
        }
        in->streams.push_back(std::move(st));
    }
    return in;
}

/** Serial single-participant reference CRC of every distinct input,
 *  each reference also decoded once to prove the codec lossless. */
void
referenceEncode(Inputs &in)
{
    pce::PipelineParams pp;
    pp.threads = 1;
    const pce::PerceptualEncoder enc(model(), pp);
    pce::EncodedFrame out;
    for (StreamInput &st : in.streams)
        for (const pce::ImageF &f : st.frames) {
            enc.encodeFrameInto(f, st.whale ? in.whaleEcc : in.minnowEcc,
                                out);
            st.refCrc.push_back(
                pce::crc32(out.bdStream.data(), out.bdStream.size()));
            st.refBits += static_cast<double>(out.bdStats.totalBits());
            in.lossless = in.lossless && pce::BdCodec::decode(
                                             out.bdStream) == out.adjustedSrgb;
        }
}

struct Outstanding
{
    Clock::time_point submitted;
    std::size_t input = 0;  ///< index into StreamInput::frames
    std::uint64_t frame = 0;
};

struct Live
{
    const StreamInput *in = nullptr;
    pce::StreamHandle handle;
    std::uint32_t traceId = 0;
    std::deque<Outstanding> outstanding;
    std::uint64_t submitted = 0;
};

/** What one window measured. */
struct Window
{
    std::vector<LatencySample> samples;  ///< every collected frame
    std::vector<double> minnowMs;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** Collection times (s from the window's start) of good frames
     *  collected before the whale's last one, per class. */
    std::vector<double> whaleAt;
    std::vector<double> minnowAt;
    double seconds = 0.0;  ///< first submit to the whale's last collect
    double bypassTiles = 0.0;
    double totalTiles = 0.0;
    double submitMs = 0.0;
    std::uint64_t submits = 0;
    std::uint64_t whaleFrames = 0;

    /** Fold in the frames and layer accounting of another (traced)
     *  window; the throughput inputs stay per window. */
    void add(const Window &o)
    {
        samples.insert(samples.end(), o.samples.begin(), o.samples.end());
        minnowMs.insert(minnowMs.end(), o.minnowMs.begin(),
                        o.minnowMs.end());
        bypassTiles += o.bypassTiles;
        totalTiles += o.totalTiles;
        submitMs += o.submitMs;
        submits += o.submits;
        whaleFrames += o.whaleFrames;
    }
};

class Session
{
  public:
    Session(const Inputs &in, bool injectFault)
    {
        pce::ServiceParams sp;
        sp.threads = nproc();
        sp.shards = static_cast<std::size_t>(sp.threads);
        if (injectFault)
            sp.postEncodeFaultHook = flipBitFault;
        service_ = std::make_unique<pce::EncodeService>(model(), sp);
        for (const StreamInput &st : in.streams) {
            Live l;
            l.in = &st;
            l.handle = service_->openStream(
                st.name, st.whale ? in.whaleEcc : in.minnowEcc);
            l.traceId = service_->streamTraceId(l.handle);
            live_.push_back(std::move(l));
        }
        // Warm-up: both slots of every stream encoded once.
        Window warm;
        for (Live &l : live_)
            for (int d = 0; d < kDepth; ++d)
                submit(l, warm);
        for (Live &l : live_)
            while (!l.outstanding.empty())
                poll(l, warm, true,
                     [&] { return service_->collect(l.handle); });
        warmFailed_ = warm.failed;
        warmAttempted_ = warm.attempted;
    }

    /** Whale frames until @p seconds have passed, minnows alongside. */
    Window run(double seconds)
    {
        Window w;
        const Clock::time_point start = Clock::now();
        windowStart_ = start;
        bool whaleDone = false;
        while (true) {
            const bool whaleFeeding = secondsSince(start) < seconds;
            for (Live &l : live_) {
                const bool feed = l.in->whale ? whaleFeeding : !whaleDone;
                while (feed &&
                       l.outstanding.size() < static_cast<std::size_t>(kDepth))
                    submit(l, w);
            }
            bool progressed = false;
            for (Live &l : live_)
                while (!l.outstanding.empty()) {
                    if (!poll(l, w, whaleDone, [&] {
                            return service_->tryCollect(l.handle);
                        }))
                        break;
                    progressed = true;
                }
            const Live &whale = live_.front();
            if (!whaleDone && !whaleFeeding && whale.outstanding.empty()) {
                whaleDone = true;
                w.seconds = secondsSince(start);
            }
            bool idle = true;
            for (const Live &l : live_)
                idle = idle && l.outstanding.empty();
            if (whaleDone && idle)
                break;
            if (!progressed) {
                // Nothing was ready: wait briefly on the oldest frame.
                Live *oldest = nullptr;
                for (Live &l : live_)
                    if (!l.outstanding.empty() &&
                        (oldest == nullptr ||
                         l.outstanding.front().submitted <
                             oldest->outstanding.front().submitted))
                        oldest = &l;
                if (oldest != nullptr)
                    poll(*oldest, w, whaleDone, [&] {
                        return service_->collectFor(
                            oldest->handle, std::chrono::milliseconds(1));
                    });
            }
        }
        return w;
    }

    pce::EncodeService &service() { return *service_; }
    std::uint32_t whaleTraceId() const { return live_.front().traceId; }
    std::uint64_t warmFailed_ = 0;
    std::uint64_t warmAttempted_ = 0;

  private:
    void submit(Live &l, Window &w)
    {
        Outstanding o;
        o.input = l.submitted % l.in->frames.size();
        o.frame = l.submitted++;
        o.submitted = Clock::now();
        try {
            pce::obs::TraceSpan span("bench/submit");
            service_->submit(l.handle, l.in->frames[o.input]);
        } catch (const std::exception &) {
            ++w.attempted;
            ++w.failed;
            return;
        }
        w.submitMs += msBetween(o.submitted, Clock::now());
        ++w.submits;
        l.outstanding.push_back(o);
    }

    /** One collect attempt; false when nothing was ready. Only calls
     *  that return a frame or throw are traced. A frame collected after
     *  @p whaleDone is checked but left out of the throughput. */
    template <typename Collect>
    bool poll(Live &l, Window &w, bool whaleDone, Collect collect)
    {
        const bool tracing = pce::obs::traceEnabled();
        const std::uint64_t t0 = tracing ? pce::obs::traceNowNs() : 0;
        pce::FrameLease lease;
        bool error = false;
        try {
            lease = collect();
        } catch (const std::exception &) {
            error = true;
        }
        if (!error && !lease.valid())
            return false;
        const Clock::time_point now = Clock::now();
        if (tracing)
            pce::obs::recordSpan("bench/collect", t0,
                                 pce::obs::traceNowNs(),
                                 pce::obs::TagScope::current());
        finish(l, std::move(lease), error, w, now, !whaleDone);
        return true;
    }

    void finish(Live &l, pce::FrameLease lease, bool error, Window &w,
                Clock::time_point now, bool inWindow)
    {
        const Outstanding o = l.outstanding.front();
        l.outstanding.pop_front();
        ++w.attempted;
        const bool ok = !error && lease.valid() &&
                        pce::crc32(lease->bdStream.data(),
                                   lease->bdStream.size()) ==
                            l.in->refCrc[o.input];
        if (ok) {
            w.bypassTiles +=
                static_cast<double>(lease->stats.fovealBypassTiles);
            w.totalTiles += static_cast<double>(lease->stats.totalTiles);
            if (inWindow)
                (l.in->whale ? w.whaleAt : w.minnowAt)
                    .push_back(std::chrono::duration<double>(now -
                                                             windowStart_)
                                   .count());
        } else {
            ++w.failed;
        }
        const double ms = ok ? msBetween(o.submitted, now)
                             : std::numeric_limits<double>::infinity();
        w.samples.push_back({ms, {{l.traceId, o.frame}}});
        if (l.in->whale)
            ++w.whaleFrames;
        else
            w.minnowMs.push_back(ms);
    }

    std::unique_ptr<pce::EncodeService> service_;
    std::vector<Live> live_;
    Clock::time_point windowStart_;
};

/**
 * Throughput robust to bursts of interference from other tenants of
 * the host, per class: the whale's megapixels over the median interval
 * between its consecutive completions (its frames encode back to back),
 * plus the minnows' megapixels per second, median over 1-second blocks.
 */
double
windowMps(const Window &w)
{
    std::vector<double> gaps;
    for (std::size_t i = 1; i < w.whaleAt.size(); ++i)
        gaps.push_back(w.whaleAt[i] - w.whaleAt[i - 1]);
    const double whale =
        gaps.empty() ? 0.0
                     : ratio(kWhaleSize * kWhaleSize / 1e6,
                             percentile(gaps, 50));
    std::vector<double> perSecond(
        static_cast<std::size_t>(std::max(1.0, std::floor(w.seconds))), 0.0);
    for (double t : w.minnowAt)
        if (t < static_cast<double>(perSecond.size()))
            perSecond[static_cast<std::size_t>(t)] += 1.0;
    return whale +
           percentile(perSecond, 50) * kMinnowSize * kMinnowSize / 1e6;
}

} // namespace

void
runWhaleMinnows(const Options &opt, Result &out)
{
    std::unique_ptr<Inputs> in = makeInputs(opt.seed);
    referenceEncode(*in);
    std::unique_ptr<Session> session;
    const double setup = medianSetupSeconds(kSetupReps, [&] {
        session.reset();
        session = std::make_unique<Session>(*in, opt.injectFault);
    });

    Window w;  // untraced: the window; traced: the traced sub-windows
    double overhead = 0.0;
    pce::ServiceReport before, after;
    out.attempted = session->warmAttempted_;
    out.failed = session->warmFailed_;
    if (!opt.trace) {
        w = session->run(opt.seconds);
        out.attempted += w.attempted;
        out.failed += w.failed;
    } else {
        before = session->service().report();
        overhead = alternateTraced(opt.seconds, [&](double s, bool on) {
            const Window x = session->run(s);
            out.attempted += x.attempted;
            out.failed += x.failed;
            if (on)
                w.add(x);
            return windowMps(x);
        });
        after = session->service().report();
    }
    const double rss = peakRssMb();
    if (!in->lossless)
        out.failed = out.attempted;

    std::vector<double> lat;
    for (const LatencySample &s : w.samples)
        lat.push_back(s.ms);
    std::size_t windowFailed = 0;
    for (double v : lat)
        windowFailed += std::isfinite(v) ? 0 : 1;
    out.note("frames_measured", static_cast<double>(lat.size()));
    out.note("whale_frames_measured", static_cast<double>(w.whaleFrames));
    out.note("minnow_frames_measured", static_cast<double>(w.minnowMs.size()));
    out.note("latency_samples", static_cast<double>(lat.size()));
    out.note("minnow_latency_samples",
             static_cast<double>(w.minnowMs.size()));
    out.note("reference_lossless", in->lossless ? 1.0 : 0.0);
    // Over the distinct inputs (every collected stream equals its
    // reference), so the number does not depend on the frame mix.
    double bits = 0.0, bitPixels = 0.0;
    for (const StreamInput &st : in->streams) {
        bits += st.refBits;
        bitPixels += static_cast<double>(st.size) * st.size *
                     static_cast<double>(st.frames.size());
    }
    if (!opt.trace) {
        out.note("window_s", w.seconds);
        out.note("minnow_latency_p99_ms", percentile(w.minnowMs, 99));
        const double frac =
            lat.empty() ? 0.0
                        : 1.0 - static_cast<double>(windowFailed) /
                                    static_cast<double>(lat.size());
        out.e2e("setup_s", setup, "s");
        out.e2e("throughput_mps", windowMps(w), "MP/s");
        out.e2e("frame_latency_p50_ms", percentile(lat, 50), "ms");
        out.e2e("frame_latency_p90_ms", percentile(lat, 90), "ms");
        out.e2e("bits_per_pixel", ratio(bits, bitPixels), "bits/px");
        out.e2e("peak_rss_mb", rss, "MiB");
        out.e2e("delivered_tile_fraction", frac, "ratio");
        return;
    }

    // The whale is the frame that runs the encode layers at one
    // participant; minnows are too small to time them meaningfully.
    const std::uint32_t whale = session->whaleTraceId();
    const TraceData trace = TraceData::collect();
    out.layer("core.adjust_ms", trace.meanMsForStream("encode/adjust", whale),
              "ms");
    out.layer("core.bypass_tile_ratio", ratio(w.bypassTiles, w.totalTiles),
              "ratio");
    out.layer("color.quantize_ms",
              trace.meanMsForStream("encode/quantize", whale), "ms");
    out.layer("bd.encode_ms", trace.meanMsForStream("encode/bd", whale), "ms");
    serviceLayerMetrics(before, after,
                        ratio(w.submitMs, static_cast<double>(w.submits)),
                        trace, w.samples, out);
    finishTrace(opt, trace, overhead, out);
}

} // namespace perfbench
