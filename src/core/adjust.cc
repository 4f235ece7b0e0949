#include "core/adjust.hh"

#include <algorithm>
#include <stdexcept>
#include <typeinfo>

#include "bd/bd_codec.hh"
#include "color/srgb.hh"
#include "core/quadric.hh"

namespace pce {

namespace {

/** Store @p pair into the six extrema lanes starting at @p high_x. */
void
storeExtrema(simd::TileSoA &soa, int high_x, std::size_t i,
             const ExtremaPair &pair)
{
    soa.lane(high_x + 0)[i] = pair.high.x;
    soa.lane(high_x + 1)[i] = pair.high.y;
    soa.lane(high_x + 2)[i] = pair.high.z;
    soa.lane(high_x + 3)[i] = pair.low.x;
    soa.lane(high_x + 4)[i] = pair.low.y;
    soa.lane(high_x + 5)[i] = pair.low.z;
}

} // namespace

std::size_t
bdTileBits(const std::vector<Vec3> &pixels_linear)
{
    std::vector<uint8_t> codes(pixels_linear.size() * 3);
    linearToSrgb8(pixels_linear.data(), pixels_linear.size(),
                  codes.data());
    return bdTileBitsFromCodes(codes.data(), pixels_linear.size());
}

TileAdjuster::TileAdjuster(const DiscriminationModel &model,
                           ExtremaFn extrema, simd::SimdLevel level)
    : model_(model), extrema_(std::move(extrema)),
      kernels_(simd::tileKernels(level)),
      simdLevel_(simd::effectiveSimdLevel(level))
{
    // The ellipsoid kernel hardcodes the analytic model's datapath;
    // use it only when the model *is* exactly that type (a subclass
    // could override the semi-axis evaluation).
    analytic_ = typeid(model) == typeid(AnalyticDiscriminationModel);
    if (analytic_)
        analyticParams_ =
            static_cast<const AnalyticDiscriminationModel &>(model)
                .params();
}

void
TileAdjuster::modelEllipsoids(simd::TileSoA &soa) const
{
    for (std::size_t i = 0; i < soa.n; ++i) {
        // Clamped before entering the model, as the ellipsoid kernel
        // does.
        const Ellipsoid e = model_.ellipsoidFor(
            Vec3(soa.lane(simd::kPx)[i], soa.lane(simd::kPy)[i],
                 soa.lane(simd::kPz)[i])
                .clamped(0.0, 1.0),
            soa.lane(simd::kEcc)[i]);
        soa.lane(simd::kCx)[i] = e.centerDkl.x;
        soa.lane(simd::kCy)[i] = e.centerDkl.y;
        soa.lane(simd::kCz)[i] = e.centerDkl.z;
        soa.lane(simd::kAx)[i] = e.semiAxes.x;
        soa.lane(simd::kAy)[i] = e.semiAxes.y;
        soa.lane(simd::kAz)[i] = e.semiAxes.z;
    }
}

void
TileAdjuster::extremaFromFn(simd::TileSoA &soa) const
{
    for (std::size_t i = 0; i < soa.n; ++i) {
        Ellipsoid e;
        e.centerDkl = Vec3(soa.lane(simd::kCx)[i], soa.lane(simd::kCy)[i],
                           soa.lane(simd::kCz)[i]);
        e.semiAxes = Vec3(soa.lane(simd::kAx)[i], soa.lane(simd::kAy)[i],
                          soa.lane(simd::kAz)[i]);
        storeExtrema(soa, simd::kRedHighX, i, extrema_(e, 0));
        storeExtrema(soa, simd::kBlueHighX, i, extrema_(e, 2));
    }
}

TileOutcome
TileAdjuster::adjustTile(simd::TileSoA &soa) const
{
    const std::size_t n = soa.n;

    // Steps 1-2 (Fig. 7): per-pixel ellipsoids, then extrema for both
    // axes. The only configuration-dependent part of the flow.
    if (analytic_)
        kernels_.ellipsoids(soa, analyticParams_);
    else
        modelEllipsoids(soa);
    if (extrema_)
        extremaFromFn(soa);
    else
        kernels_.extremaBoth(soa);

    TileOutcome out;
    for (const int axis : {0, 2}) {
        AxisResult &r = axis == 0 ? out.red : out.blue;
        if (n > 0) {
            // Step 3 (Fig. 7): HL (highest of the lows) and LH (lowest
            // of the highs); the CAU computes these with two reduction
            // trees (Sec. 4.2).
            const double *low = soa.lane(
                axis == 0 ? simd::kRedLowX : simd::kBlueLowZ);
            const double *high = soa.lane(
                axis == 0 ? simd::kRedHighX : simd::kBlueHighZ);
            double hl = -1e300;
            double lh = 1e300;
            for (std::size_t i = 0; i < n; ++i) {
                hl = std::max(hl, low[i]);
                lh = std::min(lh, high[i]);
            }
            r.hlPlane = hl;
            r.lhPlane = lh;
            r.adjustCase = hl > lh ? AdjustCase::C1 : AdjustCase::C2;
            // Then move colors along the extrema vectors.
            r.gamutClampedPixels = kernels_.moveAxis(
                soa, axis, r.adjustCase == AdjustCase::C2,
                0.5 * (hl + lh), lh, hl);
        }
        // Step 4: BD cost of the candidate after sRGB quantization;
        // the cheaper candidate is picked below.
        r.bits = kernels_.tileCost(soa, axis);
    }
    out.chosenAxis = out.red.bits < out.blue.bits ? 0 : 2;
    return out;
}

TileAdjustment
TileAdjuster::adjustTile(const std::vector<Vec3> &pixels,
                         const std::vector<double> &ecc_deg) const
{
    if (pixels.size() != ecc_deg.size())
        throw std::invalid_argument("adjustTile: size mismatch");
    const std::size_t n = pixels.size();
    simd::TileSoA soa;
    soa.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        soa.lane(simd::kPx)[i] = pixels[i].x;
        soa.lane(simd::kPy)[i] = pixels[i].y;
        soa.lane(simd::kPz)[i] = pixels[i].z;
        soa.lane(simd::kEcc)[i] = ecc_deg[i];
    }
    const TileOutcome o = adjustTile(soa);

    TileAdjustment out;
    out.chosenAxis = o.chosenAxis;
    for (const int axis : {0, 2}) {
        AxisAdjustment &a = axis == 0 ? out.red : out.blue;
        static_cast<AxisResult &>(a) = axis == 0 ? o.red : o.blue;
        const int x = axis == 0 ? simd::kOutRedX : simd::kOutBlueX;
        a.adjusted.resize(n);
        for (std::size_t i = 0; i < n; ++i)
            a.adjusted[i] = Vec3(soa.lane(x)[i], soa.lane(x + 1)[i],
                                 soa.lane(x + 2)[i]);
    }
    return out;
}

} // namespace pce
