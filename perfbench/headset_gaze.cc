/**
 * @file
 * headset_gaze: one headset, two gaze-tracked 1024x1024 eye streams on
 * a one-shard service with every core as a participant. One closed-loop
 * client keeps one stereo pair in flight (submit L, submit R, collect
 * L, collect R) while gaze follows a seeded 72 Hz saccade-and-pursuit
 * trace. Nearly all time is the intra-frame-parallel encode path.
 */

#include <cmath>
#include <limits>
#include <memory>
#include <thread>

#include "bd/bd_codec.hh"
#include "common/integrity.hh"
#include "common/rng.hh"
#include "gaze/gaze_trace.hh"
#include "harness.hh"
#include "net/packetizer.hh"
#include "render/scenes.hh"

namespace perfbench {

namespace {

constexpr int kSize = 1024;
constexpr int kDistinctFrames = 4;
constexpr double kHz = 72.0;
constexpr int kWarmupPairs = 2;
constexpr int kSetupReps = 5;
constexpr int kReplayPairs = 6;
/** Pairs the untraced window runs at least; bits_per_pixel covers
 *  exactly this many, so it is deterministic per seed. */
constexpr std::size_t kMinPairs = 100;
/** Pairs per block of the throughput estimate (medianBlockMps). */
constexpr std::size_t kBlockPairs = 10;
/** Gaze samples generated up front; one per stereo pair. */
constexpr double kGazeSeconds = 600.0;

struct Inputs
{
    std::vector<pce::StereoFrame> frames;
    pce::GazeTrace gaze;
};

Inputs
makeInputs(std::uint64_t seed)
{
    Inputs in;
    // The seed varies the scene's noise textures and the gaze trace,
    // not the animation time: every seed sees the same view, so seeds
    // are comparable.
    for (int k = 0; k < kDistinctFrames; ++k) {
        pce::RenderOptions ro;
        ro.width = kSize;
        ro.height = kSize;
        ro.time = k / kHz;
        ro.seed = seed;
        pce::StereoFrame pair;
        ro.eye = 0;
        pair.left = pce::renderScene(pce::SceneId::Office, ro);
        ro.eye = 1;
        pair.right = pce::renderScene(pce::SceneId::Office, ro);
        in.frames.push_back(std::move(pair));
    }
    // Saccade jumps plus a slow pursuit drift (under the I-VT
    // threshold) plus tracker jitter.
    pce::Rng rng(seed ^ 0x6a09e667f3bcc909ULL);
    in.gaze = pce::saccadeJumpTrace(display(kSize), kGazeSeconds, kHz,
                                    0.35, rng, 0.8);
    const pce::GazeTrace drift = pce::smoothPursuitTrace(
        kGazeSeconds, kHz, 0.0, 0.0, kSize * 0.02, 2.1);
    for (std::size_t i = 0;
         i < in.gaze.samples.size() && i < drift.samples.size(); ++i) {
        in.gaze.samples[i].x += drift.samples[i].x;
        in.gaze.samples[i].y += drift.samples[i].y;
    }
    pce::addTrackerNoise(in.gaze, 0.6, rng);
    return in;
}

/** One stereo pair the client ran. */
struct PairRecord
{
    double ms = 0.0;                ///< submit L to collect R
    bool failed = false;            ///< exception, or failed the gate
    std::uint32_t crc[2] = {0, 0};  ///< collected streams, L and R

    double latencyMs() const
    { return failed ? std::numeric_limits<double>::infinity() : ms; }
};

/** The measured numbers of one window of pairs. */
struct Window
{
    std::size_t firstPair = 0;
    std::size_t pairs = 0;
    double bits = 0.0;  ///< over the first kMinPairs pairs
    double bitPixels = 0.0;
    double bypassTiles = 0.0;
    double totalTiles = 0.0;
    double submitMs = 0.0;
};

class Session
{
  public:
    Session(const Inputs &in, bool injectFault) : in_(in)
    {
        pce::ServiceParams sp;
        sp.threads = nproc();
        sp.shards = 1;
        if (injectFault)
            sp.postEncodeFaultHook = flipBitFault;
        service_ = std::make_unique<pce::EncodeService>(model(), sp);
        left_ = service_->openGazeStream("left", display(kSize));
        right_ = service_->openGazeStream("right", display(kSize));
        for (int i = 0; i < kWarmupPairs; ++i)
            runPair(nullptr);
    }

    /** Run pairs until @p seconds have passed and at least
     *  @p minPairs pairs ran. */
    Window run(double seconds, std::size_t minPairs)
    {
        Window w;
        w.firstPair = pairs.size();
        const Clock::time_point start = Clock::now();
        while ((secondsSince(start) < seconds ||
                pairs.size() - w.firstPair < minPairs) &&
               pairs.size() < in_.gaze.samples.size())
            runPair(&w, pairs.size() - w.firstPair < minPairs);
        w.pairs = pairs.size() - w.firstPair;
        return w;
    }

    pce::EncodeService &service() { return *service_; }

    /** Every pair run, warm-up included, by pair (= gaze sample)
     *  index. */
    std::vector<PairRecord> pairs;
    std::uint32_t leftId() const { return service_->streamTraceId(left_); }
    std::uint32_t rightId() const
    { return service_->streamTraceId(right_); }

  private:
    void runPair(Window *w, bool countBits = false)
    {
        const std::size_t i = pairs.size();
        const pce::StereoFrame &pair = in_.frames[i % in_.frames.size()];
        const pce::GazeSample &g = in_.gaze.samples[i];
        PairRecord rec;
        double bits = 0.0, bypass = 0.0, tiles = 0.0;
        const Clock::time_point t0 = Clock::now();
        Clock::time_point t1 = t0;
        try {
            {
                pce::obs::TraceSpan span("bench/submit");
                service_->submit(left_, pair.left, g);
                service_->submit(right_, pair.right, g);
            }
            t1 = Clock::now();
            pce::obs::TraceSpan span("bench/collect");
            for (int eye = 0; eye < 2; ++eye) {
                pce::FrameLease lease =
                    service_->collect(eye == 0 ? left_ : right_);
                rec.crc[eye] = pce::crc32(lease->bdStream.data(),
                                          lease->bdStream.size());
                bits += static_cast<double>(lease->bdStats.totalBits());
                bypass += static_cast<double>(
                    lease->stats.fovealBypassTiles);
                tiles += static_cast<double>(lease->stats.totalTiles);
            }
        } catch (const std::exception &) {
            rec.failed = true;
        }
        rec.ms = msBetween(t0, Clock::now());
        pairs.push_back(rec);
        if (w != nullptr) {
            w->submitMs += msBetween(t0, t1);
            if (!rec.failed && countBits) {
                w->bits += bits;
                w->bitPixels += 2.0 * kSize * kSize;
            }
            if (!rec.failed) {
                w->bypassTiles += bypass;
                w->totalTiles += tiles;
            }
        }
    }

    const Inputs &in_;
    std::unique_ptr<pce::EncodeService> service_;
    pce::StreamHandle left_, right_;
};

/**
 * The gate: replay every pair the client ran through a serial,
 * single-participant encoder with a fresh gaze state per eye, compare
 * stream CRCs, and mark the pairs that do not match as failed. Returns
 * whether the references decode losslessly.
 */
bool
referenceCheck(const Inputs &in, std::vector<PairRecord> &pairs)
{
    const std::size_t n = pairs.size();
    std::vector<char> okLeft(n, 0), okRight(n, 0);
    bool losslessEye[2] = {false, false};
    auto replay = [&](int eye) {
        pce::PipelineParams pp;
        pp.threads = 1;
        const pce::PerceptualEncoder enc(model(), pp);
        pce::GazeTrackedEccentricity gaze(display(kSize));
        pce::EncodedFrame out;
        std::vector<char> &ok = eye == 0 ? okLeft : okRight;
        // A reference that throws leaves the rest of the eye failed.
        try {
            for (std::size_t i = 0; i < n; ++i) {
                const pce::StereoFrame &pair =
                    in.frames[i % in.frames.size()];
                enc.encodeFrameGazeInto(eye == 0 ? pair.left : pair.right,
                                        gaze, in.gaze.samples[i], out);
                ok[i] = pce::crc32(out.bdStream.data(),
                                   out.bdStream.size()) == pairs[i].crc[eye];
                if (i == 0)
                    losslessEye[eye] = pce::BdCodec::decode(out.bdStream) ==
                                       out.adjustedSrgb;
            }
        } catch (const std::exception &) {
        }
    };
    std::thread right([&] { replay(1); });
    replay(0);
    right.join();
    const bool lossless = losslessEye[0] && losslessEye[1];
    for (std::size_t i = 0; i < n; ++i)
        pairs[i].failed =
            pairs[i].failed || !okLeft[i] || !okRight[i] || !lossless;
    return lossless;
}

/** The traced run's per-layer replay: the same inputs through each
 *  layer's public call, at one participant and at every core. */
void
layerReplay(const Inputs &in)
{
    const int n = nproc();
    pce::PipelineParams p1;
    p1.threads = 1;
    pce::PipelineParams pn;
    pn.threads = n;
    const pce::PerceptualEncoder enc1(model(), p1);
    const pce::PerceptualEncoder encN(model(), pn);
    const pce::BdCodec codec(p1.tileSize);
    pce::GazeTrackedEccentricity gaze(display(kSize));
    pce::ImageF adjusted;
    pce::ImageU8 srgb;
    std::vector<std::uint8_t> stream;
    pce::BdEncodeScratch scratch;
    pce::BdFrameStats stats;
    for (int i = 0; i < kReplayPairs; ++i) {
        {
            pce::obs::TraceSpan span("bench/gaze.update");
            gaze.update(in.gaze.samples[static_cast<std::size_t>(i)]);
        }
        const pce::StereoFrame &pair =
            in.frames[static_cast<std::size_t>(i) % in.frames.size()];
        for (const pce::ImageF *eye : {&pair.left, &pair.right}) {
            {
                pce::obs::TraceSpan span("bench/core.adjust_1t");
                enc1.adjustFrameInto(*eye, gaze.map(), adjusted);
            }
            {
                pce::obs::TraceSpan span("bench/core.adjust_nt");
                encN.adjustFrameInto(*eye, gaze.map(), adjusted);
            }
            {
                pce::obs::TraceSpan span("bench/color.quantize");
                pce::toSrgb8Into(adjusted, srgb);
            }
            {
                pce::obs::TraceSpan span("bench/bd.encode_1t");
                codec.encodeInto(srgb, &stats, stream, &scratch, nullptr,
                                 1);
            }
            {
                pce::obs::TraceSpan span("bench/bd.encode_nt");
                codec.encodeInto(srgb, &stats, stream, &scratch,
                                 encN.pool(), n);
            }
            {
                pce::obs::TraceSpan span("bench/net.packetize");
                pce::net::packetizeFrame(stream,
                                         static_cast<std::uint64_t>(i),
                                         &gaze.map(), {});
            }
        }
    }
}

} // namespace

void
runHeadsetGaze(const Options &opt, Result &out)
{
    const Inputs in = makeInputs(opt.seed);
    std::unique_ptr<Session> session;
    const double setup = medianSetupSeconds(kSetupReps, [&] {
        session.reset();
        session = std::make_unique<Session>(in, opt.injectFault);
    });
    auto mpsOf = [&](const Window &x) {
        const auto first = static_cast<std::ptrdiff_t>(x.firstPair);
        const auto last = first + static_cast<std::ptrdiff_t>(x.pairs);
        std::vector<double> ms;
        std::vector<char> pairOk;
        for (auto i = first; i < last; ++i) {
            const PairRecord &p = session->pairs[static_cast<std::size_t>(i)];
            ms.push_back(p.ms);
            pairOk.push_back(!p.failed);
        }
        return medianBlockMps(ms, pairOk, 2.0 * kSize * kSize / 1e6,
                              kBlockPairs);
    };

    Window w;                    // untraced run: the measured window
    std::vector<Window> traced;  // traced run: the traced sub-windows
    double overhead = 0.0;
    pce::ServiceReport before, after;
    if (!opt.trace) {
        w = session->run(opt.seconds, kMinPairs);
    } else {
        before = session->service().report();
        overhead = alternateTraced(opt.seconds, [&](double s, bool on) {
            const Window x = session->run(s, 0);
            if (on)
                traced.push_back(x);
            return mpsOf(x);
        });
        after = session->service().report();
        pce::obs::setTraceEnabled(true);
        layerReplay(in);
        pce::obs::setTraceEnabled(false);
    }

    // Before the gate's reference encoders allocate anything.
    const double rss = peakRssMb();
    const bool lossless = referenceCheck(in, session->pairs);
    for (const PairRecord &p : session->pairs) {
        ++out.attempted;
        out.failed += p.failed ? 1 : 0;
    }
    out.note("frames_checked", 2.0 * static_cast<double>(out.attempted));
    out.note("reference_lossless", lossless ? 1.0 : 0.0);

    if (!opt.trace) {
        std::vector<double> lat;
        for (std::size_t i = w.firstPair; i < session->pairs.size(); ++i)
            lat.push_back(session->pairs[i].latencyMs());
        std::size_t failed = 0;
        for (double v : lat)
            failed += std::isfinite(v) ? 0 : 1;
        out.note("pairs_measured", static_cast<double>(w.pairs));
        out.note("frames_measured", 2.0 * static_cast<double>(w.pairs));
        out.note("latency_samples", static_cast<double>(lat.size()));
        out.e2e("setup_s", setup, "s");
        out.e2e("throughput_mps", mpsOf(w), "MP/s");
        out.e2e("frame_latency_p50_ms", percentile(lat, 50), "ms");
        out.e2e("frame_latency_p90_ms", percentile(lat, 90), "ms");
        out.e2e("bits_per_pixel", ratio(w.bits, w.bitPixels), "bits/px");
        out.e2e("peak_rss_mb", rss, "MiB");
        out.e2e("delivered_tile_fraction",
                lat.empty() ? 0.0
                            : 1.0 - static_cast<double>(failed) /
                                        static_cast<double>(lat.size()),
                "ratio");
        return;
    }

    std::uint64_t refix = 0, rebuilds = 0, saccades = 0, encoded = 0;
    for (std::size_t i = 0; i < after.streams.size(); ++i) {
        refix += after.streams[i].refixations -
                 before.streams[i].refixations;
        rebuilds += after.streams[i].fullRebuilds -
                    before.streams[i].fullRebuilds;
        saccades += after.streams[i].saccadeFrames -
                    before.streams[i].saccadeFrames;
        encoded += after.streams[i].framesEncoded -
                   before.streams[i].framesEncoded;
    }
    double bypass = 0.0, tiles = 0.0, submitMs = 0.0, pairs = 0.0;
    std::vector<LatencySample> samples;
    for (const Window &x : traced) {
        bypass += x.bypassTiles;
        tiles += x.totalTiles;
        submitMs += x.submitMs;
        pairs += static_cast<double>(x.pairs);
        for (std::size_t i = x.firstPair; i < x.firstPair + x.pairs; ++i)
            samples.push_back(
                {session->pairs[i].latencyMs(),
                 {{session->leftId(), i}, {session->rightId(), i}}});
    }
    out.note("pairs_measured", pairs);
    out.note("frames_measured", 2.0 * pairs);
    out.note("latency_samples", static_cast<double>(samples.size()));

    const TraceData trace = TraceData::collect();
    out.layer("gaze.update_ms", trace.meanMs("bench/gaze.update"), "ms");
    out.layer("gaze.full_rebuild_ratio",
              ratio(static_cast<double>(rebuilds),
                    static_cast<double>(refix)),
              "ratio");
    out.layer("gaze.saccade_frame_ratio",
              ratio(static_cast<double>(saccades),
                    static_cast<double>(encoded)),
              "ratio");
    const double adjN = trace.meanMs("bench/core.adjust_nt");
    const double adj1 = trace.meanMs("bench/core.adjust_1t");
    out.layer("core.adjust_ms", adjN, "ms");
    out.layer("core.adjust_ms_1t", adj1, "ms");
    out.layer("core.adjust_scaling", ratio(adj1, adjN), "x");
    out.layer("core.bypass_tile_ratio", ratio(bypass, tiles), "ratio");
    out.layer("color.quantize_ms", trace.meanMs("bench/color.quantize"),
              "ms");
    const double bdN = trace.meanMs("bench/bd.encode_nt");
    const double bd1 = trace.meanMs("bench/bd.encode_1t");
    out.layer("bd.encode_ms", bdN, "ms");
    out.layer("bd.encode_ms_1t", bd1, "ms");
    out.layer("bd.encode_scaling", ratio(bd1, bdN), "x");
    out.layer("net.packetize_ms", trace.meanMs("bench/net.packetize"),
              "ms");
    serviceLayerMetrics(before, after, ratio(submitMs, 2.0 * pairs), trace,
                        samples, out);
    finishTrace(opt, trace, overhead, out);
}

} // namespace perfbench
