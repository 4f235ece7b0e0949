/**
 * @file
 * Planar (structure-of-arrays) tile storage for the SIMD kernel layer.
 *
 * The tile datapath works on one contiguous array per *component*
 * (pixel x, pixel y, ..., extrema low z) rather than on Vec3 /
 * Ellipsoid / ExtremaPair records, so a 4-wide AVX2 kernel can load
 * four pixels' worth of one coordinate with a single unaligned vector
 * load and never shuffle.
 *
 * TileSoA is one reusable arena holding every planar lane of the tile
 * datapath. All lanes share a common stride (the pixel count rounded up
 * to the vector width), so kernels may process ceil(n / 4) full vectors
 * per lane without tail code: resize() zero-fills the padding of the
 * *input* lanes, which keeps the padded math of the kernels benign (no
 * spurious division-by-zero or negative sqrt in the unused slots), and
 * the padded slots of output lanes are simply never read back. The
 * scalar loops that fill the ellipsoid or extrema lanes for a
 * non-analytic model or an extrema override write only the n valid
 * slots; the padded slots after them may then hold stale or inf/NaN
 * intermediates, which every kernel masks out of its exceptions,
 * counts and results.
 */

#ifndef PCE_SIMD_TILE_SOA_HH
#define PCE_SIMD_TILE_SOA_HH

#include <cstddef>
#include <vector>

namespace pce::simd {

/** Vector width (doubles) the lane stride is padded to. */
inline constexpr std::size_t kLaneWidth = 4;

/** Planar lanes of the per-tile datapath. */
enum Lane : int
{
    // Inputs (caller-filled; padding zeroed by resize()).
    kPx, kPy, kPz,              ///< raw linear-RGB pixels
    kEcc,                       ///< per-pixel eccentricity, degrees

    // Stage 1 outputs: per-pixel discrimination ellipsoids.
    kCx, kCy, kCz,              ///< DKL center (= DKL of clamped pixel)
    kAx, kAy, kAz,              ///< DKL semi-axes

    // Stage 2 outputs: extrema along the Red / Blue optimization axes.
    kRedHighX, kRedHighY, kRedHighZ,
    kRedLowX, kRedLowY, kRedLowZ,
    kBlueHighX, kBlueHighY, kBlueHighZ,
    kBlueLowX, kBlueLowY, kBlueLowZ,

    // Stage 3 outputs: the two candidate adjusted tiles.
    kOutRedX, kOutRedY, kOutRedZ,
    kOutBlueX, kOutBlueY, kOutBlueZ,

    kLaneCount
};

/**
 * One grow-once arena of every planar lane. Cache-line aligned: the
 * frame pipeline keeps one arena per worker in a vector, and resize()
 * rewrites n / stride on every tile, so two workers' headers must never
 * share a line.
 */
struct alignas(64) TileSoA
{
    std::size_t n = 0;       ///< valid pixels per lane
    std::size_t stride = 0;  ///< doubles per lane (n padded to kLaneWidth)
    std::vector<double> buf; ///< kLaneCount lanes of `stride` doubles

    /**
     * Set the pixel count and (re)provision the arena. The buffer only
     * ever grows, so a scratch reused across tiles allocates once.
     * Padding slots of the input lanes are zeroed every call — stale
     * values from a larger previous tile must not leak into the padded
     * vector math of the current one.
     */
    void
    resize(std::size_t count)
    {
        n = count;
        stride = (count + kLaneWidth - 1) / kLaneWidth * kLaneWidth;
        if (buf.size() < stride * kLaneCount)
            buf.resize(stride * kLaneCount);
        for (int l = kPx; l <= kEcc; ++l)
            for (std::size_t i = n; i < stride; ++i)
                lane(l)[i] = 0.0;
    }

    double *lane(int l) { return buf.data() + stride * l; }
    const double *lane(int l) const { return buf.data() + stride * l; }
};

} // namespace pce::simd

#endif // PCE_SIMD_TILE_SOA_HH
