/**
 * @file
 * Ablation benches for the design choices DESIGN.md calls out:
 *
 *  1. Axis choice (Sec. 3.4): optimize Blue only, Red only, or run both
 *     and pick the cheaper (the paper's design). Quantifies what the
 *     "pick the one with smaller delta" stage buys.
 *  2. Foveal cutoff (Sec. 5.1): compression vs. the kept foveal radius.
 *  3. Per-user calibration (Sec. 6.5): compression as the global model
 *     scale varies (a conservative-to-average observer sweep).
 */

#include <iostream>

#include "bd/bd_codec.hh"
#include "bench_common.hh"
#include "core/adjust.hh"
#include "metrics/report.hh"

using namespace pce;

namespace {

/** Encode a frame with a forced axis (-1 = paper's pick-better). */
double
bppWithAxis(const ImageF &frame, const EccentricityMap &ecc,
            const DiscriminationModel &model, int axis)
{
    const int tile_size = 4;
    const TileAdjuster adjuster(model);
    ImageF out = frame;
    for (const TileRect &rect :
         tileGrid(frame.width(), frame.height(), tile_size)) {
        std::vector<Vec3> pixels;
        std::vector<double> eccs;
        double min_ecc = 1e300;
        for (int y = rect.y0; y < rect.y0 + rect.h; ++y) {
            for (int x = rect.x0; x < rect.x0 + rect.w; ++x) {
                pixels.push_back(frame.at(x, y));
                eccs.push_back(ecc.at(x, y));
                min_ecc = std::min(min_ecc, eccs.back());
            }
        }
        if (min_ecc < 5.0)
            continue;
        const TileAdjustment result = adjuster.adjustTile(pixels, eccs);
        const std::vector<Vec3> &adjusted =
            (axis < 0 ? result.chosen() : result.axis(axis)).adjusted;
        std::size_t k = 0;
        for (int y = rect.y0; y < rect.y0 + rect.h; ++y)
            for (int x = rect.x0; x < rect.x0 + rect.w; ++x)
                out.at(x, y) = adjusted[k++];
    }
    const BdCodec bd(tile_size);
    return bd.analyze(toSrgb8(out)).bitsPerPixel();
}

} // namespace

int
main()
{
    const int w = std::min<int>(pce::bench::benchWidth(), 384);
    const int h = std::min<int>(pce::bench::benchHeight(), 384);
    const EccentricityMap ecc(pce::bench::benchDisplay(w, h));
    const auto &model = pce::bench::benchModel();

    // --- Ablation 1: axis selection ---------------------------------
    TextTable ax("Ablation: optimization axis (bits/pixel, " +
                 std::to_string(w) + "x" + std::to_string(h) + ")");
    ax.setHeader({"scene", "BD", "Red only", "Blue only",
                  "pick better (paper)"});
    for (SceneId id : allScenes()) {
        const ImageF frame = renderScene(id, {w, h, 0, 0.0, 0});
        const BdCodec bd(4);
        ax.addRow({sceneName(id),
                   fmtDouble(bd.analyze(toSrgb8(frame)).bitsPerPixel(),
                             2),
                   fmtDouble(bppWithAxis(frame, ecc, model, 0), 2),
                   fmtDouble(bppWithAxis(frame, ecc, model, 2), 2),
                   fmtDouble(bppWithAxis(frame, ecc, model, -1), 2)});
    }
    ax.print(std::cout);
    std::cout << "\n";

    // --- Ablation 2: foveal cutoff ----------------------------------
    TextTable fov("Ablation: foveal cutoff radius vs compression");
    fov.setHeader({"cutoff (deg)", "mean bits/pixel",
                   "bypassed tiles (%)"});
    for (double cutoff : {0.0, 2.5, 5.0, 10.0, 20.0}) {
        double bpp_sum = 0.0;
        double bypass_sum = 0.0;
        for (SceneId id : allScenes()) {
            const ImageF frame = renderScene(id, {w, h, 0, 0.0, 0});
            PipelineParams params;
            params.fovealCutoffDeg = cutoff;
            params.threads = pce::bench::benchThreads();
            const PerceptualEncoder enc(model, params);
            PipelineStats stats;
            const ImageF adjusted =
                enc.adjustFrame(frame, ecc, &stats);
            const BdCodec bd(4);
            bpp_sum += bd.analyze(toSrgb8(adjusted)).bitsPerPixel();
            bypass_sum += 100.0 *
                          static_cast<double>(stats.fovealBypassTiles) /
                          static_cast<double>(stats.totalTiles);
        }
        fov.addRow({fmtDouble(cutoff, 1), fmtDouble(bpp_sum / 6.0, 2),
                    fmtDouble(bypass_sum / 6.0, 1)});
    }
    fov.print(std::cout);
    std::cout << "\n";

    // --- Ablation 3: per-user model scale (Sec. 6.5) ----------------
    TextTable cal("Ablation: per-user calibration scale vs compression");
    cal.setHeader({"model scale", "mean bits/pixel",
                   "reduction vs raw (%)"});
    for (double scale : {0.25, 0.5, 0.75, 1.0, 1.5}) {
        AnalyticModelParams params;
        params.globalScale = scale;
        const AnalyticDiscriminationModel scaled(params);
        double bpp_sum = 0.0;
        for (SceneId id : allScenes()) {
            const ImageF frame = renderScene(id, {w, h, 0, 0.0, 0});
            PipelineParams pparams;
            pparams.threads = pce::bench::benchThreads();
            const PerceptualEncoder enc(scaled, pparams);
            bpp_sum +=
                enc.encodeFrame(frame, ecc).bdStats.bitsPerPixel();
        }
        const double bpp = bpp_sum / 6.0;
        cal.addRow({fmtDouble(scale, 2), fmtDouble(bpp, 2),
                    fmtDouble(reductionVsRawPercent(bpp), 1)});
    }
    cal.print(std::cout);
    std::cout << "\nA conservative (smaller-threshold) per-user model "
                 "trades compression for safety margin; scale 1.0 is "
                 "the population average (Sec. 6.5).\n\n";

    // --- Ablation 4: gaze position ----------------------------------
    // The farther the fixation sits from frame center, the more pixels
    // land at high eccentricity (larger ellipsoids) -- gaze-tracked
    // encoding adapts every frame.
    TextTable gaze("Ablation: fixation position vs compression");
    gaze.setHeader({"fixation", "mean bits/pixel",
                    "mean eccentricity (deg)"});
    const struct
    {
        const char *name;
        double fx, fy;
    } fixations[] = {
        {"center", 0.5, 0.5},
        {"quarter", 0.25, 0.25},
        {"corner", 0.02, 0.02},
    };
    for (const auto &fix : fixations) {
        DisplayGeometry g = pce::bench::benchDisplay(w, h);
        g.fixationX = fix.fx * w;
        g.fixationY = fix.fy * h;
        const EccentricityMap gaze_ecc(g);
        double mean_ecc = 0.0;
        for (int y = 0; y < h; ++y)
            for (int x = 0; x < w; ++x)
                mean_ecc += gaze_ecc.at(x, y);
        mean_ecc /= static_cast<double>(w) * h;

        double bpp_sum = 0.0;
        for (SceneId id : allScenes()) {
            const ImageF frame = renderScene(id, {w, h, 0, 0.0, 0});
            PipelineParams pparams;
            pparams.threads = pce::bench::benchThreads();
            const PerceptualEncoder enc(model, pparams);
            bpp_sum += enc.encodeFrame(frame, gaze_ecc)
                           .bdStats.bitsPerPixel();
        }
        gaze.addRow({fix.name, fmtDouble(bpp_sum / 6.0, 2),
                     fmtDouble(mean_ecc, 1)});
    }
    gaze.print(std::cout);
    std::cout << "\nOff-center gaze pushes more pixels into deep "
                 "periphery and buys additional compression --\nthe "
                 "gaze-tracked deployment the paper assumes.\n";
    return 0;
}
