/**
 * @file
 * Full-frame encoder throughput runner: measures adjustFrame and
 * encodeFrame in megapixels/s (single-thread and multi-thread) and
 * *appends* a dated record to BENCH_encoder.json, so the file carries
 * the perf trajectory across PRs instead of one overwritten snapshot.
 *
 * The measured loop is the steady-state frame stream: outputs are
 * reused via adjustFrameInto / encodeFrameInto, so an animation loop
 * allocates nothing after the first frame (the zero-allocation claim
 * of docs/PERF.md is what this bench exercises).
 *
 * Resolution and thread count come from PCE_BENCH_WIDTH /
 * PCE_BENCH_HEIGHT / PCE_BENCH_THREADS; the output path defaults to
 * BENCH_encoder.json in the working directory (override with
 * PCE_BENCH_OUT or argv[1]). Each record carries the git revision
 * (stamped at build time by the pce_git_rev target / cmake/git_rev.cmake,
 * so incremental rebuilds across commits stay attributable), the active
 * SIMD dispatch level, and the actual pool thread counts used for the
 * MT numbers.
 */

#include <chrono>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>

#include "bench_common.hh"
#include "common/env.hh"
#include "core/pipeline.hh"
#include "obs/trace.hh"
#include "simd/tile_kernels.hh"

#ifdef PCE_HAVE_GIT_REV_HEADER
#include "pce_git_rev.h"  // build-time stamp (cmake/git_rev.cmake)
#endif
#ifndef PCE_GIT_REV
#define PCE_GIT_REV "unknown"
#endif

namespace {

using namespace pce;
using Clock = std::chrono::steady_clock;

/**
 * Single-thread full-frame throughput of the pre-change (seed)
 * implementation at 512x512, measured with this same runner (best of
 * interleaved baseline/new runs, identical build flags) before the
 * zero-allocation rebuild landed. Recorded so the JSON carries the
 * speedup-vs-baseline trajectory; re-baseline on different hardware by
 * rebuilding the seed revision with the current CMakeLists and rerunning
 * (methodology in docs/PERF.md).
 */
constexpr double kBaselineAdjustMps = 2.92;
constexpr double kBaselineEncodeMps = 2.24;
/**
 * Serial decode of the PR 2 tree (the seed-era bit-at-a-time reader
 * and per-pixel width branch) on the same adjusted 512x512 office
 * stream this runner measures, interleaved with the hardened
 * decodeInto immediately before it landed (best-of per round, 3
 * rounds: 84.4-87.2 MP/s). On a raw unadjusted-noise stream old and
 * new are at parity — the win concentrates where streams have flat
 * tiles, which adjusted production streams do.
 */
constexpr double kBaselineDecodeMps = 86.0;

struct Measurement
{
    double adjustMps = 0.0;
    double encodeMps = 0.0;
    double decodeMps = 0.0;
};

Measurement
measure(const ImageF &frame, const EccentricityMap &ecc, int threads,
        int repeats)
{
    PipelineParams params;
    params.threads = threads;
    const PerceptualEncoder encoder(bench::benchModel(), params);
    const double mpix =
        static_cast<double>(frame.pixelCount()) / 1e6;

    // Steady-state frame stream: outputs reused across iterations.
    ImageF adjusted;
    EncodedFrame enc;

    // Warm-up (populates lazy tables, faults pages, spins up workers,
    // grows the reused buffers to their steady-state size).
    encoder.adjustFrameInto(frame, ecc, adjusted);
    encoder.encodeFrameInto(frame, ecc, enc);

    // Decode side of the same stream: the hardened parallel decodeInto
    // in its steady state (caller-owned image + scratch, own pool so
    // the measurement matches a standalone decode service).
    ImageU8 decoded;
    BdDecodeScratch decode_scratch;
    std::unique_ptr<ThreadPool> decode_pool;
    if (threads > 1)
        decode_pool = std::make_unique<ThreadPool>(threads - 1);
    BdCodec::decodeInto(enc.bdStream, decoded, &decode_scratch,
                        decode_pool.get(), threads);

    Measurement m;
    double best_adjust = 1e300;
    double best_encode = 1e300;
    double best_decode = 1e300;
    for (int r = 0; r < repeats; ++r) {
        auto t0 = Clock::now();
        encoder.adjustFrameInto(frame, ecc, adjusted);
        auto t1 = Clock::now();
        encoder.encodeFrameInto(frame, ecc, enc);
        auto t2 = Clock::now();
        BdCodec::decodeInto(enc.bdStream, decoded, &decode_scratch,
                            decode_pool.get(), threads);
        auto t3 = Clock::now();
        if (adjusted.pixelCount() == 0 || enc.bdStream.empty() ||
            decoded != enc.adjustedSrgb)
            std::abort();  // keep the work observable (and lossless)
        best_adjust = std::min(
            best_adjust,
            std::chrono::duration<double>(t1 - t0).count());
        best_encode = std::min(
            best_encode,
            std::chrono::duration<double>(t2 - t1).count());
        best_decode = std::min(
            best_decode,
            std::chrono::duration<double>(t3 - t2).count());
    }
    m.adjustMps = mpix / best_adjust;
    m.encodeMps = mpix / best_encode;
    m.decodeMps = mpix / best_decode;
    return m;
}

struct TraceOverhead
{
    /** Medians of the untraced / traced single-frame encode rates. */
    double offMps = 0.0;
    double onMps = 0.0;
    /** Median of the per-repeat on/off rate ratios. */
    double ratio = 0.0;
    /** Events the traced frames recorded. */
    std::uint64_t events = 0;
};

/**
 * Single-thread encode with tracing off vs on. Every repeat times one
 * untraced and one traced frame back to back (alternating which goes
 * first), so each pair shares the host's load at that moment; the
 * ratio is taken per pair and its median reported. The off frame is
 * the shipping default (every span is one relaxed load); the on frame
 * pays clock reads + ring stores.
 */
TraceOverhead
measureTraceOverhead(const ImageF &frame, const EccentricityMap &ecc,
                     int repeats)
{
    const PerceptualEncoder encoder(bench::benchModel(), PipelineParams{});
    const double mpix =
        static_cast<double>(frame.pixelCount()) / 1e6;
    EncodedFrame enc;
    encoder.encodeFrameInto(frame, ecc, enc);  // warm-up
    const auto timed = [&](bool traced) {
        obs::setTraceEnabled(traced);
        const auto t0 = Clock::now();
        encoder.encodeFrameInto(frame, ecc, enc);
        const auto t1 = Clock::now();
        obs::setTraceEnabled(false);
        if (enc.bdStream.empty())
            std::abort();
        return mpix / std::chrono::duration<double>(t1 - t0).count();
    };

    obs::Tracer::instance().reset();
    std::vector<double> off;
    std::vector<double> on;
    std::vector<double> ratio;
    for (int r = 0; r < repeats; ++r) {
        const bool on_first = r % 2 == 1;
        const double first = timed(on_first);
        const double second = timed(!on_first);
        off.push_back(on_first ? second : first);
        on.push_back(on_first ? first : second);
        ratio.push_back(on.back() / off.back());
    }
    TraceOverhead t;
    t.offMps = bench::median(off);
    t.onMps = bench::median(on);
    t.ratio = bench::median(ratio);
    t.events = obs::Tracer::instance().recordedEvents();
    obs::Tracer::instance().reset();
    return t;
}

} // namespace

int
main(int argc, char **argv)
{
    const int w = pce::bench::benchWidth();
    const int h = pce::bench::benchHeight();
    const int threads = pce::bench::benchThreads();
    const int repeats =
        static_cast<int>(pce::envInt("PCE_BENCH_REPEATS", 5));
    std::string out_path = "BENCH_encoder.json";
    if (argc > 1)
        out_path = argv[1];
    else if (const char *env = std::getenv("PCE_BENCH_OUT"))
        out_path = env;

    const ImageF frame =
        renderScene(SceneId::Office, {w, h, 0, 0.0, 0});
    const EccentricityMap ecc(pce::bench::benchDisplay(w, h));

    const Measurement single = measure(frame, ecc, 1, repeats);
    const Measurement multi =
        threads > 1 ? measure(frame, ecc, threads, repeats) : single;
    const int mt_threads = threads > 1 ? threads : 1;

    const TraceOverhead trace = measureTraceOverhead(frame, ecc, repeats);

    std::ostringstream rec;
    rec << "  {\n"
        << "    \"bench\": \"full_frame_encoder\",\n"
        << "    \"date\": \"" << pce::bench::isoNowUtc() << "\",\n"
        << "    \"git_rev\": \"" << PCE_GIT_REV << "\",\n"
        << "    \"simd_level\": \""
        << pce::simd::simdLevelName(pce::simd::activeSimdLevel())
        << "\",\n"
        << "    \"scene\": \"office\",\n"
        << "    \"width\": " << w << ",\n"
        << "    \"height\": " << h << ",\n"
        << "    \"repeats\": " << repeats << ",\n"
        << "    \"hw_threads\": "
        << std::thread::hardware_concurrency() << ",\n"
        << "    \"mt_threads\": " << mt_threads << ",\n"
        << "    \"mt_pool_workers\": " << (mt_threads - 1) << ",\n"
        << "    \"adjust_mps_1t\": " << single.adjustMps << ",\n"
        << "    \"encode_mps_1t\": " << single.encodeMps << ",\n"
        << "    \"decode_mps_1t\": " << single.decodeMps << ",\n"
        << "    \"adjust_mps_mt\": " << multi.adjustMps << ",\n"
        << "    \"encode_mps_mt\": " << multi.encodeMps << ",\n"
        << "    \"decode_mps_mt\": " << multi.decodeMps << ",\n"
        << "    \"baseline_adjust_mps_1t\": " << kBaselineAdjustMps
        << ",\n"
        << "    \"baseline_encode_mps_1t\": " << kBaselineEncodeMps
        << ",\n"
        << "    \"baseline_decode_mps_1t\": " << kBaselineDecodeMps
        << ",\n"
        << "    \"adjust_speedup_vs_baseline\": "
        << (kBaselineAdjustMps > 0.0
                ? single.adjustMps / kBaselineAdjustMps
                : 0.0)
        << ",\n"
        << "    \"encode_speedup_vs_baseline\": "
        << (kBaselineEncodeMps > 0.0
                ? single.encodeMps / kBaselineEncodeMps
                : 0.0)
        << ",\n"
        << "    \"decode_speedup_vs_baseline\": "
        << (kBaselineDecodeMps > 0.0
                ? single.decodeMps / kBaselineDecodeMps
                : 0.0)
        << ",\n"
        << "    \"trace_off_encode_mps_1t\": " << trace.offMps << ",\n"
        << "    \"trace_on_encode_mps_1t\": " << trace.onMps << ",\n"
        << "    \"trace_on_vs_off\": " << trace.ratio << ",\n"
        << "    \"trace_events\": " << trace.events << "\n  }";
    pce::bench::appendJsonRecord(out_path, rec.str());

    std::cout << "simd level: "
              << pce::simd::simdLevelName(
                     pce::simd::activeSimdLevel())
              << " (git " << PCE_GIT_REV << ")\n"
              << "adjustFrame 1t: " << single.adjustMps << " MP/s\n"
              << "encodeFrame 1t: " << single.encodeMps << " MP/s\n"
              << "decodeInto  1t: " << single.decodeMps << " MP/s\n"
              << "adjustFrame " << mt_threads
              << "t: " << multi.adjustMps << " MP/s\n"
              << "encodeFrame " << mt_threads
              << "t: " << multi.encodeMps << " MP/s\n"
              << "decodeInto  " << mt_threads
              << "t: " << multi.decodeMps << " MP/s\n"
              << "encodeFrame 1t trace off/on: " << trace.offMps << " / "
              << trace.onMps << " MP/s (median ratio " << trace.ratio
              << ", " << trace.events << " events)\n"
              << "appended record to " << out_path << "\n";
    return 0;
}
