/**
 * @file
 * Per-tile perceptual color adjustment (paper Sec. 3.3-3.4, Fig. 6-7).
 *
 * Given a tile of linear-RGB pixels and their discrimination ellipsoids,
 * the adjuster shrinks the spread of one RGB channel (Red or Blue) by
 * moving each color along its ellipsoid's extrema vector:
 *
 *  - Per pixel, compute the extrema (H_i, L_i) of its ellipsoid along
 *    the optimization axis.
 *  - Reduce: HL = max_i L_i[axis] (highest of the lows) and
 *            LH = min_i H_i[axis] (lowest of the highs).
 *  - Case 1 (HL > LH, Fig. 6a): no plane crosses every ellipsoid; clamp
 *    each pixel's channel into [LH, HL] (colors above HL move down to
 *    HL, colors below LH move up to LH), the minimal-movement policy
 *    achieving the optimal spread HL - LH.
 *  - Case 2 (HL <= LH, Fig. 6b): every plane between HL and LH crosses
 *    all ellipsoids; move every color to the average plane
 *    (HL + LH) / 2, collapsing the channel spread to zero.
 *
 * Movement is along the extrema vector so the adjusted color stays
 * inside its ellipsoid (the target channel value lies between the two
 * extrema, hence on the center chord). A final gamut step restricts the
 * movement parameter so the color also stays inside the RGB unit cube —
 * the perceptual constraint (Eq. 7d) is never traded for compression.
 *
 * Both axes are tried and the tile variant with the smaller BD bit cost
 * (after sRGB quantization) is kept, exactly as in Fig. 7.
 *
 * One planar flow runs every configuration. The caller gathers a tile
 * into the input lanes of a simd::TileSoA and adjustTile() runs the
 * four Fig. 7 steps over them: ellipsoids, extrema for both axes, the
 * HL/LH move along each axis, then the BD cost of both candidates and
 * the pick. Only the first two steps depend on the configuration, and
 * the adjuster decides at construction how to fill their lanes: the
 * analytic model and the default extrema backend use the SIMD kernels
 * (src/simd); any other model, or an ExtremaFn override, fills the
 * same lanes with a scalar loop. Steps 3 and 4 always run the kernels.
 * A worker reuses one TileSoA across tiles, so a frame encodes without
 * allocating.
 *
 * The std::vector convenience overload wraps the same flow for tests,
 * benches and exploratory code, and returns both axis candidates.
 */

#ifndef PCE_CORE_ADJUST_HH
#define PCE_CORE_ADJUST_HH

#include <algorithm>
#include <cstddef>
#include <functional>
#include <vector>

#include "common/vec3.hh"
#include "core/quadric.hh"
#include "perception/discrimination.hh"
#include "simd/tile_kernels.hh"
#include "simd/tile_soa.hh"

namespace pce {

/**
 * Pluggable extrema backend. The default is the double-precision
 * Eq. 11-13 datapath (extremaAlongAxis); the hardware-fidelity ablation
 * substitutes the fixed-point datapath of src/hw/fixed_datapath.hh to
 * measure end-to-end effects of datapath width.
 */
using ExtremaFn = std::function<ExtremaPair(const Ellipsoid &, int)>;

/** Which Fig. 6 case a tile fell into along one axis. */
enum class AdjustCase
{
    C1,  ///< HL > LH: no common plane (Fig. 6a)
    C2,  ///< HL <= LH: common plane exists, channel collapses (Fig. 6b)
};

/** One axis candidate of a tile (Fig. 7 steps 2-4 along one axis). */
struct AxisResult
{
    AdjustCase adjustCase = AdjustCase::C2;
    double hlPlane = 0.0;  ///< HL value along the axis
    double lhPlane = 0.0;  ///< LH value along the axis
    int gamutClampedPixels = 0;  ///< movements shortened by the gamut
    std::size_t bits = 0;  ///< BD bits after sRGB quantization
};

/**
 * Outcome of the planar tile flow: both axis candidates and the pick.
 * The adjusted pixels stay in the TileSoA's kOutRed* / kOutBlue*
 * lanes until the arena is reused.
 */
struct TileOutcome
{
    AxisResult red;
    AxisResult blue;
    int chosenAxis = 2;  ///< 0 = Red, 2 = Blue: the cheaper candidate

    const AxisResult &chosen() const
    {
        return chosenAxis == 0 ? red : blue;
    }
};

/** One axis candidate of the vector overload, with its pixels. */
struct AxisAdjustment : AxisResult
{
    std::vector<Vec3> adjusted;  ///< linear RGB, same order as input
};

/** Outcome of the vector overload: both candidates and the pick. */
struct TileAdjustment
{
    AxisAdjustment red;
    AxisAdjustment blue;
    int chosenAxis = 2;  ///< 0 = Red, 2 = Blue

    /** The candidate along axis @p a (0 = Red, 2 = Blue). */
    const AxisAdjustment &axis(int a) const
    {
        return a == 0 ? red : blue;
    }
    const AxisAdjustment &chosen() const { return axis(chosenAxis); }
};

/** The color adjustment algorithm of Sec. 3.4. */
class TileAdjuster
{
  public:
    /**
     * @param model Discrimination model used to derive per-pixel
     *              ellipsoids. The reference must outlive the adjuster.
     *              Exactly AnalyticDiscriminationModel fills the
     *              ellipsoid lanes with the kernel; any other model
     *              (a subclass included) with a scalar loop over
     *              ellipsoidFor.
     * @param extrema Extrema backend; empty runs the extremaBoth
     *                kernel, otherwise a scalar loop calls it per pixel
     *                for both axes.
     * @param level SIMD dispatch level of the kernels; defaults to
     *              CPUID detection with the FOVE_SIMD env override (see
     *              src/simd/tile_kernels.hh). Every level gives
     *              bit-identical results for every configuration.
     */
    explicit TileAdjuster(const DiscriminationModel &model,
                          ExtremaFn extrema = {},
                          simd::SimdLevel level =
                              simd::activeSimdLevel());

    /**
     * Effective dispatch level of the kernel table (the constructor's
     * request clamped to what the CPU/build can run).
     */
    simd::SimdLevel simdLevel() const { return simdLevel_; }

    /**
     * The full Fig. 7 tile flow on caller-owned planar lanes: soa must
     * be resize(n)'d with lanes kPx..kPz / kEcc filled. Both candidates
     * land in the kOutRed* / kOutBlue* lanes; the outcome names the
     * cheaper one. Zero allocation once the arena has warmed to the
     * tile size.
     */
    TileOutcome adjustTile(simd::TileSoA &soa) const;

    /**
     * Convenience overload of the same flow that copies both axis
     * candidates out of a call-local arena.
     *
     * @param pixels Linear-RGB tile pixels.
     * @param ecc_deg Per-pixel eccentricities (same length).
     */
    TileAdjustment adjustTile(const std::vector<Vec3> &pixels,
                              const std::vector<double> &ecc_deg) const;

    const DiscriminationModel &model() const { return model_; }

  private:
    /** Ellipsoid lanes of a non-analytic model (scalar loop). */
    void modelEllipsoids(simd::TileSoA &soa) const;

    /** Extrema lanes of an ExtremaFn override (scalar loop). */
    void extremaFromFn(simd::TileSoA &soa) const;

    const DiscriminationModel &model_;
    ExtremaFn extrema_;
    /** True when the model is exactly AnalyticDiscriminationModel. */
    bool analytic_ = false;
    /** Params snapshot backing the ellipsoid kernel (analytic only). */
    AnalyticModelParams analyticParams_;
    const simd::TileKernels &kernels_;
    simd::SimdLevel simdLevel_ = simd::SimdLevel::Scalar;
};

/**
 * BD bit cost of a tile of linear-RGB pixels after sRGB quantization:
 * per channel, meta(4) + base(8) + N * ceil(log2(range+1)) bits.
 * Shared by the adjuster's axis selection and the pipeline stats.
 * Convenience wrapper over bdTileBitsFromCodes (src/bd).
 */
std::size_t bdTileBits(const std::vector<Vec3> &pixels_linear);

/**
 * Clamp the movement parameter @p t of the segment p(t) = origin +
 * t * dir so every coordinate stays within [0, 1]. Assumes origin is in
 * gamut (true for rendered colors). Returns the clamped t.
 *
 * One definition shared by the scalar moveAxis kernel (src/simd) and
 * the Vec3 reference in tests/simd — the bit-identity contract between
 * them is anchored here, and the AVX2 kernel mirrors this exact
 * operation sequence lanewise.
 */
inline double
clampMovementToGamut(const Vec3 &origin, const Vec3 &dir, double t)
{
    for (std::size_t i = 0; i < 3; ++i) {
        const double d = dir[i];
        if (d == 0.0)
            continue;
        // origin[i] + t*d in [0,1]  =>  t in the interval below.
        const double t_at_0 = (0.0 - origin[i]) / d;
        const double t_at_1 = (1.0 - origin[i]) / d;
        const double t_min = std::min(t_at_0, t_at_1);
        const double t_max = std::max(t_at_0, t_at_1);
        t = std::clamp(t, t_min, t_max);
    }
    return t;
}

} // namespace pce

#endif // PCE_CORE_ADJUST_HH
