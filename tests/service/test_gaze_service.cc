/**
 * @file
 * EncodeService gaze streams: per-frame gaze submission is
 * byte-identical to driving encodeFrameGazeInto directly, streams
 * re-fixate independently, per-frame round-trip verification and the
 * dispatcher-backlog metrics surface in the report, every report
 * counter is pinned on one scripted workload, and the gaze/static
 * submit APIs reject mixed use.
 */

#include <gtest/gtest.h>

#include <vector>

#include "service/encode_service.hh"

namespace pce {
namespace {

const AnalyticDiscriminationModel &
model()
{
    static const AnalyticDiscriminationModel m;
    return m;
}

DisplayGeometry
geometry(int w, int h)
{
    DisplayGeometry g;
    g.width = w;
    g.height = h;
    g.horizontalFovDeg = 100.0;
    g.fixationX = w / 2.0;
    g.fixationY = h / 2.0;
    return g;
}

/** A small clip plus a 1 Hz scanpath with one saccade-speed jump. */
struct Workload
{
    std::vector<ImageF> frames;
    std::vector<GazeSample> gaze;
};

Workload
workload(SceneId scene, int n, int frame_count)
{
    Workload w;
    double t = 0.0;
    for (int i = 0; i < frame_count; ++i) {
        w.frames.push_back(
            renderScene(scene, {n, n, 0, 0.2 * i, 0}));
        // 1 s spacing keeps pixel-scale motion in fixation range on
        // the tiny test display; frame 3 jumps fast (a saccade).
        t += (i == 3) ? 0.004 : 1.0;
        const double x = n / 2.0 + (i % 4) + (i == 3 ? n / 3.0 : 0.0);
        const double y = n / 2.0 + ((i * 2) % 5);
        w.gaze.push_back({t, x, y});
    }
    return w;
}

TEST(GazeService, ByteIdenticalToDirectGazeEncode)
{
    const int n = 64;
    const DisplayGeometry geom = geometry(n, n);
    const Workload w = workload(SceneId::Office, n, 8);

    // Direct reference: one gaze state, one encoder, same samples.
    PipelineParams pp;
    const PerceptualEncoder enc(model(), pp);
    GazeTrackedEccentricity ref_gaze(geom);
    std::vector<std::vector<uint8_t>> reference;
    std::vector<bool> ref_saccade;
    EncodedFrame scratch;
    for (std::size_t i = 0; i < w.frames.size(); ++i) {
        const GazePhase phase = enc.encodeFrameGazeInto(
            w.frames[i], ref_gaze, w.gaze[i], scratch);
        reference.push_back(scratch.bdStream);
        ref_saccade.push_back(phase == GazePhase::Saccade);
    }
    ASSERT_TRUE(ref_saccade[3]);  // the workload's jump frame

    ServiceParams sp;
    sp.verifyRoundTrip = true;
    EncodeService svc(model(), sp);
    StreamHandle stream = svc.openGazeStream("tracked", geom);
    for (std::size_t i = 0; i < w.frames.size(); ++i) {
        svc.submit(stream, w.frames[i], w.gaze[i]);
        const FrameLease lease = svc.collect(stream);
        EXPECT_EQ(lease->bdStream, reference[i]) << "frame " << i;
        EXPECT_EQ(lease->stats.saccadeBypassTiles > 0,
                  ref_saccade[i]) << "frame " << i;
    }

    const ServiceReport rep = svc.report();
    ASSERT_EQ(rep.streams.size(), 1u);
    const StreamStats &st = rep.streams[0];
    EXPECT_EQ(st.framesEncoded, w.frames.size());
    EXPECT_EQ(st.saccadeFrames, 1u);
    EXPECT_EQ(st.deferredGazeUpdates, 1u);
    EXPECT_EQ(st.refixations, w.frames.size() - 1);
    EXPECT_EQ(st.framesVerified, w.frames.size());
    EXPECT_EQ(st.corruptFrames, 0u);
    EXPECT_EQ(rep.corruptFrames, 0u);
}

TEST(GazeService, StreamsRefixateIndependently)
{
    const int n = 48;
    const DisplayGeometry geom = geometry(n, n);
    const Workload wa = workload(SceneId::Thai, n, 6);
    const Workload wb = workload(SceneId::Dumbo, n, 6);

    // Interleave two gaze streams with *different* scanpaths; each
    // must match its own single-stream run.
    const auto solo = [&](const Workload &w,
                          std::vector<GazeSample> gaze) {
        ServiceParams sp;
        EncodeService svc(model(), sp);
        StreamHandle s = svc.openGazeStream("solo", geom);
        std::vector<std::vector<uint8_t>> out;
        for (std::size_t i = 0; i < w.frames.size(); ++i) {
            svc.submit(s, w.frames[i], gaze[i]);
            out.push_back(svc.collect(s)->bdStream);
        }
        return out;
    };
    std::vector<GazeSample> gaze_b = wb.gaze;
    for (GazeSample &s : gaze_b) {  // shift stream B's scanpath
        s.x -= 6.0;
        s.y += 4.0;
    }
    const auto ref_a = solo(wa, wa.gaze);
    const auto ref_b = solo(wb, gaze_b);

    ServiceParams sp;
    EncodeService svc(model(), sp);
    StreamHandle a = svc.openGazeStream("a", geom);
    StreamHandle b = svc.openGazeStream("b", geom);
    for (std::size_t i = 0; i < wa.frames.size(); ++i) {
        svc.submit(a, wa.frames[i], wa.gaze[i]);
        svc.submit(b, wb.frames[i], gaze_b[i]);
        EXPECT_EQ(svc.collect(a)->bdStream, ref_a[i]) << i;
        EXPECT_EQ(svc.collect(b)->bdStream, ref_b[i]) << i;
    }
}

TEST(GazeService, ReportPinsEveryCounterOnAScriptedWorkload)
{
    // One gaze stream with the scripted saccade and one static stream
    // on a two-shard hardened, round-trip-verified service; the gaze
    // stream's frame 5 has one bit of its BD stream flipped after the
    // seal, so collect() quarantines it. Every counter of the report
    // has a known value here except the steal split, which depends on
    // timing and is checked as a consistency relation instead.
    const int n = 48;
    const int frames = 8;
    const std::uint64_t kFlipped = 5;
    const DisplayGeometry geom = geometry(n, n);
    const EccentricityMap ecc(geom);
    const Workload w = workload(SceneId::Office, n, frames);

    ServiceParams sp;
    sp.threads = 2;
    sp.shards = 2;
    sp.verifyRoundTrip = true;
    sp.hardenIntegrity = true;
    sp.postEncodeFaultHook = [&](const std::string &name,
                                 std::uint64_t frame_index,
                                 EncodedFrame &out) {
        if (name == "tracked" && frame_index == kFlipped)
            out.bdStream[out.bdStream.size() / 2] ^= 0x10;
    };
    EncodeService svc(model(), sp);
    StreamHandle tracked = svc.openGazeStream("tracked", geom);
    StreamHandle fixed = svc.openStream("fixed", ecc);
    for (int i = 0; i < frames; ++i) {
        svc.submit(tracked, w.frames[i], w.gaze[i]);
        svc.submit(fixed, w.frames[i]);
        if (static_cast<std::uint64_t>(i) == kFlipped)
            EXPECT_THROW(svc.collect(tracked), FrameQuarantined);
        else
            svc.collect(tracked).release();
        svc.collect(fixed).release();
    }
    svc.drainAll();

    const ServiceReport rep = svc.report();
    const double frame_mp = n * n / 1e6;
    ASSERT_EQ(rep.streams.size(), 2u);
    std::uint64_t stream_stolen = 0;
    for (const StreamStats &st : rep.streams) {
        SCOPED_TRACE(st.name);
        const bool gaze = st.name == "tracked";
        EXPECT_EQ(st.shard, EncodeService::shardForName(st.name, 2));
        EXPECT_EQ(st.framesSubmitted, 8u);
        EXPECT_EQ(st.framesEncoded, 8u);
        EXPECT_EQ(st.framesCollected, 8u);
        EXPECT_EQ(st.latencySamples, 8u);
        EXPECT_DOUBLE_EQ(st.megapixels, frames * frame_mp);
        EXPECT_GT(st.encodeSeconds, 0.0);
        EXPECT_DOUBLE_EQ(st.encodeMps, st.megapixels / st.encodeSeconds);
        EXPECT_LE(st.queueLatencyP50Ms, st.queueLatencyP90Ms);
        EXPECT_LE(st.queueLatencyP90Ms, st.queueLatencyP99Ms);
        EXPECT_LE(st.queueLatencyP99Ms,
                  st.queueLatencyMaxMs * (1.0 + 1.0 / 16.0));
        EXPECT_EQ(st.framesVerified, 8u);
        EXPECT_EQ(st.corruptFrames, 0u);
        EXPECT_EQ(st.saccadeFrames, gaze ? 1u : 0u);
        EXPECT_EQ(st.refixations, gaze ? 7u : 0u);
        EXPECT_EQ(st.fullRebuilds, gaze ? 6u : 0u);
        EXPECT_EQ(st.deferredGazeUpdates, gaze ? 1u : 0u);
        EXPECT_EQ(st.faultsDetected, gaze ? 1u : 0u);
        EXPECT_EQ(st.framesQuarantined, gaze ? 1u : 0u);
        EXPECT_EQ(st.gazeRecoveries, 0u);
        EXPECT_LE(st.framesStolen, st.framesEncoded);
        stream_stolen += st.framesStolen;
    }

    EXPECT_EQ(rep.framesEncoded, 16u);
    EXPECT_DOUBLE_EQ(rep.megapixels, 2 * frames * frame_mp);
    EXPECT_GT(rep.wallSeconds, 0.0);
    EXPECT_DOUBLE_EQ(rep.aggregateMps, rep.megapixels / rep.wallSeconds);
    EXPECT_EQ(rep.queuedRequests, 0u);
    EXPECT_EQ(rep.queueCapacity, sp.queueCapacity);
    EXPECT_GE(rep.queuePeakDepth, 1u);
    EXPECT_LE(rep.queuePeakDepth, rep.queueCapacity);
    EXPECT_EQ(rep.stolenFrames, stream_stolen);
    EXPECT_EQ(rep.corruptFrames, 0u);
    EXPECT_EQ(rep.faultsDetected, 1u);
    EXPECT_EQ(rep.framesQuarantined, 1u);
    EXPECT_EQ(rep.gazeRecoveries, 0u);

    ASSERT_EQ(rep.shards.size(), 2u);
    std::size_t homed = 0;
    std::uint64_t encoded = 0;
    std::uint64_t stolen = 0;
    std::uint64_t stolen_from = 0;
    std::uint64_t queued = 0;
    std::uint64_t residency = 0;
    for (std::size_t i = 0; i < rep.shards.size(); ++i) {
        const ShardStats &sh = rep.shards[i];
        SCOPED_TRACE("shard " + std::to_string(i));
        EXPECT_EQ(sh.shard, i);
        EXPECT_EQ(sh.participants, 1);
        EXPECT_EQ(sh.queueDepth, 0u);
        EXPECT_EQ(sh.queueCapacity, sp.queueCapacity / 2);
        EXPECT_LE(sh.queuePeakDepth, sh.queueCapacity);
        EXPECT_EQ(sh.busySeconds > 0.0, sh.framesEncoded > 0);
        EXPECT_DOUBLE_EQ(sh.occupancy, sh.busySeconds / rep.wallSeconds);
        EXPECT_EQ(sh.poolDispatches, 0u);  // one participant: no pool
        homed += sh.streamsHomed;
        encoded += sh.framesEncoded;
        stolen += sh.framesStolen;
        stolen_from += sh.framesStolenFrom;
        queued += sh.framesQueued;
        residency += sh.residencySamples;
    }
    EXPECT_EQ(homed, 2u);
    EXPECT_EQ(encoded, 16u);
    EXPECT_EQ(queued, 16u);
    EXPECT_EQ(residency, 16u);
    EXPECT_EQ(stolen, rep.stolenFrames);
    EXPECT_EQ(stolen_from, rep.stolenFrames);
}

TEST(GazeService, MixedSubmitApisAreRejected)
{
    const int n = 48;
    const DisplayGeometry geom = geometry(n, n);
    const EccentricityMap static_map(geom);
    const ImageF frame(n, n);

    ServiceParams sp;
    EncodeService svc(model(), sp);
    StreamHandle tracked = svc.openGazeStream("tracked", geom);
    StreamHandle fixed = svc.openStream("fixed", static_map);

    EXPECT_THROW(svc.submit(tracked, frame), std::invalid_argument);
    EXPECT_THROW(svc.submit(fixed, frame, {0.0, 1.0, 1.0}),
                 std::invalid_argument);
    // The valid pairings still work.
    svc.submit(tracked, frame, {0.0, n / 2.0, n / 2.0});
    svc.submit(fixed, frame);
    svc.drainAll();

    // Gaze params that cannot honor the foveal cutoff fail at open.
    GazeStreamParams bad;
    bad.ecc.exactBandDeg = 6.0;
    EXPECT_THROW(svc.openGazeStream("bad", geom, bad),
                 std::invalid_argument);
}

TEST(GazeService, VerifyRoundTripCountsOnStaticStreams)
{
    const int n = 48;
    const DisplayGeometry geom = geometry(n, n);
    const EccentricityMap ecc(geom);
    ServiceParams sp;
    sp.verifyRoundTrip = true;
    EncodeService svc(model(), sp);
    StreamHandle s = svc.openStream("checked", ecc);
    const ImageF frame =
        renderScene(SceneId::Monkey, {n, n, 0, 0, 0});
    for (int i = 0; i < 3; ++i) {
        svc.submit(s, frame);
        svc.collect(s).release();
    }
    const ServiceReport rep = svc.report();
    EXPECT_EQ(rep.streams[0].framesVerified, 3u);
    EXPECT_EQ(rep.streams[0].corruptFrames, 0u);
    EXPECT_EQ(rep.corruptFrames, 0u);

    // Off by default: no verification cost, no counts.
    ServiceParams off;
    EncodeService svc2(model(), off);
    StreamHandle s2 = svc2.openStream("unchecked", ecc);
    svc2.submit(s2, frame);
    svc2.collect(s2).release();
    EXPECT_EQ(svc2.report().streams[0].framesVerified, 0u);
}

TEST(GazeService, QueueDepthMetricsSurfaceInReport)
{
    const int n = 32;
    const DisplayGeometry geom = geometry(n, n);
    const EccentricityMap ecc(geom);
    ServiceParams sp;
    sp.streamDepth = 4;
    EncodeService svc(model(), sp);
    StreamHandle s = svc.openStream("depth", ecc);
    const ImageF frame(n, n, Vec3(0.5, 0.5, 0.5));
    for (int i = 0; i < 4; ++i)
        svc.submit(s, frame);
    svc.drain(s);
    const ServiceReport rep = svc.report();
    EXPECT_EQ(rep.queueCapacity, sp.queueCapacity);
    EXPECT_GE(rep.queuePeakDepth, 1u);
    EXPECT_LE(rep.queuePeakDepth, rep.queueCapacity);
    EXPECT_EQ(rep.queuedRequests, 0u);
}

} // namespace
} // namespace pce
