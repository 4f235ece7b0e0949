/**
 * @file
 * Bit-exactness of the SIMD kernel layer (src/simd) across dispatch
 * levels, plus the FOVE_SIMD override.
 *
 * The contract under test is equality, not tolerance: every kernel at
 * every level available on this host must reproduce its reference
 * double for double — the model/quadric code for stages 1-2, a Vec3
 * reference of the Fig. 6 move for stage 3, the codec's accounting for
 * stage 4 — and the whole tile flow must match the Scalar level for
 * every discrimination model and extrema backend. Scalar is always
 * available; AVX2 runs whenever the host CPU has it.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "../support/adjust_configs.hh"
#include "bd/bd_codec.hh"
#include "color/srgb.hh"
#include "common/rng.hh"
#include "core/adjust.hh"
#include "core/quadric.hh"
#include "perception/discrimination.hh"
#include "simd/tile_kernels.hh"
#include "simd/tile_soa.hh"

namespace pce {
namespace {

const AnalyticDiscriminationModel &
model()
{
    static const AnalyticDiscriminationModel m;
    return m;
}

/** Every dispatch level available on this host. */
std::vector<simd::SimdLevel>
availableLevels()
{
    std::vector<simd::SimdLevel> levels{simd::SimdLevel::Scalar};
    if (simd::detectedSimdLevel() == simd::SimdLevel::Avx2)
        levels.push_back(simd::SimdLevel::Avx2);
    return levels;
}

/** A random tile around a base color, optionally near the gamut edge. */
std::vector<Vec3>
randomTile(Rng &rng, std::size_t n, double spread, bool gamut_edge)
{
    std::vector<Vec3> tile;
    const Vec3 base = gamut_edge
                          ? Vec3(rng.uniform(), rng.uniform(),
                                 rng.uniform(0.9, 1.0))
                          : Vec3(rng.uniform(0.15, 0.85),
                                 rng.uniform(0.15, 0.85),
                                 rng.uniform(0.15, 0.85));
    for (std::size_t i = 0; i < n; ++i) {
        Vec3 p = base + Vec3(rng.uniform(-spread, spread),
                             rng.uniform(-spread, spread),
                             rng.uniform(-spread, spread));
        tile.push_back(p.clamped(0.0, 1.0));
    }
    return tile;
}

/** Fill a TileSoA's input lanes from AoS pixels/eccentricities. */
void
fillSoA(simd::TileSoA &soa, const std::vector<Vec3> &pixels,
        const std::vector<double> &ecc)
{
    soa.resize(pixels.size());
    for (std::size_t i = 0; i < pixels.size(); ++i) {
        soa.lane(simd::kPx)[i] = pixels[i].x;
        soa.lane(simd::kPy)[i] = pixels[i].y;
        soa.lane(simd::kPz)[i] = pixels[i].z;
        soa.lane(simd::kEcc)[i] = ecc[i];
    }
}

/** Bitwise equality of the first n slots of lanes [first, first+count). */
void
expectLanesBitEqual(const simd::TileSoA &a, const simd::TileSoA &b,
                    int first, int count, const std::string &what)
{
    ASSERT_EQ(a.n, b.n);
    for (int l = first; l < first + count; ++l)
        EXPECT_EQ(std::memcmp(a.lane(l), b.lane(l),
                              a.n * sizeof(double)),
                  0)
            << what << " lane " << l;
}

void
expectOutcomesEqual(const TileOutcome &a, const TileOutcome &b)
{
    EXPECT_EQ(a.chosenAxis, b.chosenAxis);
    for (const int axis : {0, 2}) {
        const AxisResult &ra = axis == 0 ? a.red : a.blue;
        const AxisResult &rb = axis == 0 ? b.red : b.blue;
        EXPECT_EQ(ra.adjustCase, rb.adjustCase) << "axis " << axis;
        EXPECT_EQ(std::memcmp(&ra.hlPlane, &rb.hlPlane, sizeof(double)),
                  0)
            << "axis " << axis;
        EXPECT_EQ(std::memcmp(&ra.lhPlane, &rb.lhPlane, sizeof(double)),
                  0)
            << "axis " << axis;
        EXPECT_EQ(ra.gamutClampedPixels, rb.gamutClampedPixels)
            << "axis " << axis;
        EXPECT_EQ(ra.bits, rb.bits) << "axis " << axis;
    }
}

/**
 * Vec3 reference of the Fig. 7 move along one axis: reduce HL/LH over
 * the AoS extrema, then move every pixel along its extrema vector and
 * clamp to the gamut. The moveAxis kernels and the adjuster's HL/LH
 * reduction are pinned to it bit for bit.
 */
struct ReferenceMove
{
    AdjustCase adjustCase = AdjustCase::C2;
    double hl = 0.0;
    double lh = 0.0;
    int gamutClamped = 0;
    std::vector<Vec3> adjusted;
};

ReferenceMove
referenceMove(const std::vector<Vec3> &pixels,
              const std::vector<ExtremaPair> &extrema, int axis)
{
    ReferenceMove out;
    double hl = -1e300;
    double lh = 1e300;
    for (const auto &ex : extrema) {
        hl = std::max(hl, ex.low[axis]);
        lh = std::min(lh, ex.high[axis]);
    }
    out.hl = hl;
    out.lh = lh;
    out.adjustCase = hl > lh ? AdjustCase::C1 : AdjustCase::C2;

    out.adjusted.resize(pixels.size());
    for (std::size_t i = 0; i < pixels.size(); ++i) {
        const Vec3 &p = pixels[i];
        const double target = out.adjustCase == AdjustCase::C2
                                  ? 0.5 * (hl + lh)
                                  : std::clamp(p[axis], lh, hl);
        const Vec3 v = extrema[i].extremaVector();
        if (v[axis] == 0.0) {
            out.adjusted[i] = p;
            continue;
        }
        const double t = (target - p[axis]) / v[axis];
        const Vec3 cand = p + v * t;
        if (cand.x > 0.0 && cand.x < 1.0 && cand.y > 0.0 &&
            cand.y < 1.0 && cand.z > 0.0 && cand.z < 1.0) {
            out.adjusted[i] = cand;
            continue;
        }
        const double t_gamut = clampMovementToGamut(p, v, t);
        if (t_gamut != t)
            ++out.gamutClamped;
        out.adjusted[i] = p + v * t_gamut;
    }
    return out;
}

class SimdLevelTest
    : public ::testing::TestWithParam<simd::SimdLevel>
{};

TEST_P(SimdLevelTest, EllipsoidKernelMatchesModelExactly)
{
    const simd::TileKernels &k = simd::tileKernels(GetParam());
    Rng rng(101);
    simd::TileSoA soa;
    for (const std::size_t n : {16u, 7u, 1u, 33u}) {
        for (int trial = 0; trial < 25; ++trial) {
            const auto tile = randomTile(rng, n, 0.2, trial % 3 == 0);
            std::vector<double> ecc;
            for (std::size_t i = 0; i < n; ++i)
                ecc.push_back(rng.uniform(0.0, 40.0));
            fillSoA(soa, tile, ecc);
            k.ellipsoids(soa, model().params());
            for (std::size_t i = 0; i < n; ++i) {
                const Ellipsoid e = model().ellipsoidFor(
                    tile[i].clamped(0.0, 1.0), ecc[i]);
                EXPECT_EQ(soa.lane(simd::kCx)[i], e.centerDkl.x);
                EXPECT_EQ(soa.lane(simd::kCy)[i], e.centerDkl.y);
                EXPECT_EQ(soa.lane(simd::kCz)[i], e.centerDkl.z);
                EXPECT_EQ(soa.lane(simd::kAx)[i], e.semiAxes.x);
                EXPECT_EQ(soa.lane(simd::kAy)[i], e.semiAxes.y);
                EXPECT_EQ(soa.lane(simd::kAz)[i], e.semiAxes.z);
            }
        }
    }
}

TEST_P(SimdLevelTest, ExtremaKernelMatchesQuadricDatapathExactly)
{
    const simd::TileKernels &k = simd::tileKernels(GetParam());
    Rng rng(202);
    simd::TileSoA soa;
    for (const std::size_t n : {16u, 5u, 2u}) {
        for (int trial = 0; trial < 25; ++trial) {
            const auto tile = randomTile(rng, n, 0.25, false);
            std::vector<double> ecc;
            for (std::size_t i = 0; i < n; ++i)
                ecc.push_back(rng.uniform(0.0, 40.0));
            fillSoA(soa, tile, ecc);
            k.ellipsoids(soa, model().params());
            k.extremaBoth(soa);
            for (std::size_t i = 0; i < n; ++i) {
                const Ellipsoid e = model().ellipsoidFor(
                    tile[i].clamped(0.0, 1.0), ecc[i]);
                ExtremaPair red;
                ExtremaPair blue;
                extremaBothAxes(e, red, blue);
                EXPECT_EQ(soa.lane(simd::kRedHighX)[i], red.high.x);
                EXPECT_EQ(soa.lane(simd::kRedHighY)[i], red.high.y);
                EXPECT_EQ(soa.lane(simd::kRedHighZ)[i], red.high.z);
                EXPECT_EQ(soa.lane(simd::kRedLowX)[i], red.low.x);
                EXPECT_EQ(soa.lane(simd::kRedLowY)[i], red.low.y);
                EXPECT_EQ(soa.lane(simd::kRedLowZ)[i], red.low.z);
                EXPECT_EQ(soa.lane(simd::kBlueHighX)[i], blue.high.x);
                EXPECT_EQ(soa.lane(simd::kBlueHighY)[i], blue.high.y);
                EXPECT_EQ(soa.lane(simd::kBlueHighZ)[i], blue.high.z);
                EXPECT_EQ(soa.lane(simd::kBlueLowX)[i], blue.low.x);
                EXPECT_EQ(soa.lane(simd::kBlueLowY)[i], blue.low.y);
                EXPECT_EQ(soa.lane(simd::kBlueLowZ)[i], blue.low.z);
            }
        }
    }
}

TEST_P(SimdLevelTest, MoveKernelMatchesVec3ReferenceExactly)
{
    // Stage 3 alone: the kernel fed the reference's own extrema and
    // planes must move every pixel to the same bits and count the same
    // gamut clamps. The adjuster's HL/LH reduction (its planes and
    // case) must match the reference too. Gamut-edge tiles exercise
    // the clamp path, tight tiles the C2 collapse.
    const simd::TileKernels &k = simd::tileKernels(GetParam());
    const TileAdjuster adjuster(model(), {}, GetParam());
    Rng rng(250);
    simd::TileSoA soa;
    int clamped_seen = 0;
    for (const std::size_t n : {16u, 5u, 1u, 13u}) {
        for (int trial = 0; trial < 30; ++trial) {
            const auto tile =
                randomTile(rng, n, trial % 3 == 0 ? 0.004 : 0.2,
                           trial % 2 == 0);
            std::vector<double> ecc;
            for (std::size_t i = 0; i < n; ++i)
                ecc.push_back(rng.uniform(5.0, 40.0));
            std::vector<ExtremaPair> red(n);
            std::vector<ExtremaPair> blue(n);
            for (std::size_t i = 0; i < n; ++i)
                extremaBothAxes(model().ellipsoidFor(
                                    tile[i].clamped(0.0, 1.0), ecc[i]),
                                red[i], blue[i]);
            const TileAdjustment flow = adjuster.adjustTile(tile, ecc);

            fillSoA(soa, tile, ecc);
            for (std::size_t i = 0; i < n; ++i) {
                const ExtremaPair *pairs[2] = {&red[i], &blue[i]};
                const int first[2] = {simd::kRedHighX, simd::kBlueHighX};
                for (int a = 0; a < 2; ++a) {
                    soa.lane(first[a] + 0)[i] = pairs[a]->high.x;
                    soa.lane(first[a] + 1)[i] = pairs[a]->high.y;
                    soa.lane(first[a] + 2)[i] = pairs[a]->high.z;
                    soa.lane(first[a] + 3)[i] = pairs[a]->low.x;
                    soa.lane(first[a] + 4)[i] = pairs[a]->low.y;
                    soa.lane(first[a] + 5)[i] = pairs[a]->low.z;
                }
            }
            for (const int axis : {0, 2}) {
                const ReferenceMove ref =
                    referenceMove(tile, axis == 0 ? red : blue, axis);
                clamped_seen += ref.gamutClamped;
                const int clamped = k.moveAxis(
                    soa, axis, ref.adjustCase == AdjustCase::C2,
                    0.5 * (ref.hl + ref.lh), ref.lh, ref.hl);
                EXPECT_EQ(clamped, ref.gamutClamped);
                const int x = axis == 0 ? simd::kOutRedX
                                        : simd::kOutBlueX;
                for (std::size_t i = 0; i < n; ++i)
                    EXPECT_EQ(Vec3(soa.lane(x)[i], soa.lane(x + 1)[i],
                                   soa.lane(x + 2)[i]),
                              ref.adjusted[i])
                        << "n " << n << " trial " << trial << " axis "
                        << axis << " pixel " << i;

                const AxisAdjustment &got = flow.axis(axis);
                EXPECT_EQ(got.adjustCase, ref.adjustCase);
                EXPECT_EQ(got.hlPlane, ref.hl);
                EXPECT_EQ(got.lhPlane, ref.lh);
                EXPECT_EQ(got.gamutClampedPixels, ref.gamutClamped);
                EXPECT_EQ(got.adjusted, ref.adjusted);
            }
        }
    }
    EXPECT_GT(clamped_seen, 0) << "no gamut-clamped pixel sampled";
}

TEST_P(SimdLevelTest, TileFlowMatchesScalarLevelExactly)
{
    // The full tile flow at this level vs. the Scalar level, for every
    // model and extrema backend: outcome metadata, planes, bit costs,
    // gamut counts, and every double of both candidates must be
    // identical. Ragged sizes and gamut-edge tiles exercise the padded
    // lanes and the clamp path.
    for (const test::AdjustConfig &cfg : test::adjustConfigs()) {
        SCOPED_TRACE(cfg.name);
        const TileAdjuster scalar(*cfg.model, cfg.extrema,
                                  simd::SimdLevel::Scalar);
        const TileAdjuster level(*cfg.model, cfg.extrema, GetParam());
        Rng rng(303);
        simd::TileSoA a;
        simd::TileSoA b;
        for (const std::size_t n : {16u, 4u, 1u, 13u, 49u, 64u}) {
            for (int trial = 0; trial < 12; ++trial) {
                const auto tile =
                    randomTile(rng, n, rng.uniform(0.0, 0.3),
                               trial % 2 == 0);
                std::vector<double> ecc;
                for (std::size_t i = 0; i < n; ++i)
                    ecc.push_back(rng.uniform(5.0, 40.0));
                fillSoA(a, tile, ecc);
                fillSoA(b, tile, ecc);
                const TileOutcome oa = level.adjustTile(a);
                const TileOutcome ob = scalar.adjustTile(b);
                SCOPED_TRACE("n " + std::to_string(n) + " trial " +
                             std::to_string(trial));
                expectOutcomesEqual(oa, ob);
                expectLanesBitEqual(a, b, simd::kOutRedX, 6,
                                    "candidates");
            }
        }
    }
}

TEST_P(SimdLevelTest, EveryConfigurationRunsTheSharedKernels)
{
    // One flow for every model and extrema backend: the ellipsoid and
    // extrema lanes hold the configuration's own model/backend values,
    // and the planes, candidates, clamp counts and costs are exactly
    // what the shared moveAxis / tileCost kernels produce from them.
    const simd::TileKernels &k = simd::tileKernels(GetParam());
    for (const test::AdjustConfig &cfg : test::adjustConfigs()) {
        SCOPED_TRACE(cfg.name);
        const TileAdjuster adjuster(*cfg.model, cfg.extrema, GetParam());
        Rng rng(606);
        for (const std::size_t n : {16u, 13u}) {
            const auto tile = randomTile(rng, n, 0.1, false);
            std::vector<double> ecc;
            for (std::size_t i = 0; i < n; ++i)
                ecc.push_back(rng.uniform(5.0, 40.0));
            simd::TileSoA soa;
            fillSoA(soa, tile, ecc);
            const TileOutcome out = adjuster.adjustTile(soa);

            for (std::size_t i = 0; i < n; ++i) {
                const Ellipsoid e = cfg.model->ellipsoidFor(
                    tile[i].clamped(0.0, 1.0), ecc[i]);
                EXPECT_EQ(soa.lane(simd::kCx)[i], e.centerDkl.x);
                EXPECT_EQ(soa.lane(simd::kCz)[i], e.centerDkl.z);
                EXPECT_EQ(soa.lane(simd::kAx)[i], e.semiAxes.x);
                EXPECT_EQ(soa.lane(simd::kAz)[i], e.semiAxes.z);
                ExtremaPair red;
                ExtremaPair blue;
                if (cfg.extrema) {
                    red = cfg.extrema(e, 0);
                    blue = cfg.extrema(e, 2);
                } else {
                    extremaBothAxes(e, red, blue);
                }
                EXPECT_EQ(soa.lane(simd::kRedHighX)[i], red.high.x);
                EXPECT_EQ(soa.lane(simd::kRedLowY)[i], red.low.y);
                EXPECT_EQ(soa.lane(simd::kBlueHighY)[i], blue.high.y);
                EXPECT_EQ(soa.lane(simd::kBlueLowZ)[i], blue.low.z);
            }

            simd::TileSoA rerun = soa;
            for (int l = simd::kOutRedX; l <= simd::kOutBlueZ; ++l)
                std::fill_n(rerun.lane(l), rerun.stride, -1.0);
            for (const int axis : {0, 2}) {
                const AxisResult &r = axis == 0 ? out.red : out.blue;
                const double *low = soa.lane(
                    axis == 0 ? simd::kRedLowX : simd::kBlueLowZ);
                const double *high = soa.lane(
                    axis == 0 ? simd::kRedHighX : simd::kBlueHighZ);
                EXPECT_EQ(r.hlPlane, *std::max_element(low, low + n));
                EXPECT_EQ(r.lhPlane, *std::min_element(high, high + n));
                EXPECT_EQ(r.gamutClampedPixels,
                          k.moveAxis(rerun, axis,
                                     r.adjustCase == AdjustCase::C2,
                                     0.5 * (r.hlPlane + r.lhPlane),
                                     r.lhPlane, r.hlPlane));
                EXPECT_EQ(r.bits, k.tileCost(rerun, axis));
            }
            expectLanesBitEqual(rerun, soa, simd::kOutRedX, 6,
                                "candidates");
            EXPECT_EQ(out.chosenAxis,
                      out.red.bits < out.blue.bits ? 0 : 2);
        }
    }
}

TEST_P(SimdLevelTest, TileCostMatchesCodePath)
{
    // The fused quantize+cost kernel vs. the materialized-codes path.
    const simd::TileKernels &k = simd::tileKernels(GetParam());
    Rng rng(404);
    simd::TileSoA soa;
    for (const std::size_t n : {16u, 3u, 9u}) {
        for (int trial = 0; trial < 25; ++trial) {
            soa.resize(n);
            // Raw candidate values, including slightly out-of-gamut
            // and exact-boundary inputs the quantizer must clamp.
            for (std::size_t i = 0; i < n; ++i) {
                soa.lane(simd::kOutRedX)[i] = rng.uniform(-0.1, 1.1);
                soa.lane(simd::kOutRedY)[i] = rng.uniform(0.0, 1.0);
                soa.lane(simd::kOutRedZ)[i] =
                    i % 4 == 0 ? 1.0 : rng.uniform();
            }
            std::vector<uint8_t> codes(n * 3);
            linearToSrgb8Planar(soa.lane(simd::kOutRedX),
                                soa.lane(simd::kOutRedY),
                                soa.lane(simd::kOutRedZ), n,
                                codes.data());
            EXPECT_EQ(k.tileCost(soa, 0),
                      bdTileBitsFromCodes(codes.data(), n));
        }
    }
}

TEST_P(SimdLevelTest, BdTileMinMaxMatchesDirectScanExactly)
{
    // The BD stats kernel vs. a direct per-channel scan over every
    // tile of the grid: full tiles, ragged edge tiles, tiles ending at
    // the very last byte of the buffer (exercising the in-bounds guard
    // of the vector tail), and row widths on both sides of the 32-byte
    // vector width.
    const simd::TileKernels &k = simd::tileKernels(GetParam());
    Rng rng(808);
    const struct
    {
        int w, h, tile;
    } cases[] = {{64, 64, 4},  {61, 47, 4}, {13, 7, 5}, {128, 96, 16},
                 {1, 1, 4},    {40, 40, 8}, {9, 9, 3},  {33, 2, 32},
                 {256, 3, 255}};
    for (const auto &cs : cases) {
        ImageU8 img(cs.w, cs.h);
        for (auto &b : img.data())
            b = static_cast<uint8_t>(rng.uniformInt(256));
        const std::size_t stride =
            static_cast<std::size_t>(cs.w) * 3;
        const uint8_t *end = img.data().data() + img.data().size();
        for (const TileRect &rect :
             tileGrid(cs.w, cs.h, cs.tile)) {
            uint8_t lo[3];
            uint8_t hi[3];
            k.bdTileMinMax(img.pixel(rect.x0, rect.y0), stride,
                           rect.w, rect.h, end, lo, hi);
            uint8_t ref_lo[3] = {255, 255, 255};
            uint8_t ref_hi[3] = {0, 0, 0};
            for (int y = rect.y0; y < rect.y0 + rect.h; ++y)
                for (int x = rect.x0; x < rect.x0 + rect.w; ++x)
                    for (int c = 0; c < 3; ++c) {
                        const uint8_t v = img.channel(x, y, c);
                        ref_lo[c] = std::min(ref_lo[c], v);
                        ref_hi[c] = std::max(ref_hi[c], v);
                    }
            for (int c = 0; c < 3; ++c) {
                EXPECT_EQ(lo[c], ref_lo[c])
                    << cs.w << "x" << cs.h << " tile " << cs.tile
                    << " at (" << rect.x0 << "," << rect.y0
                    << ") channel " << c;
                EXPECT_EQ(hi[c], ref_hi[c])
                    << cs.w << "x" << cs.h << " tile " << cs.tile
                    << " at (" << rect.x0 << "," << rect.y0
                    << ") channel " << c;
            }
        }
    }
}

TEST(SimdDispatch, EncodeStatsPassIsLevelInvariant)
{
    // The whole-frame encode must emit byte-identical streams whether
    // the stats pass ran the AVX2 or the scalar min/max kernel (the
    // FOVE_SIMD override is read per encodeInto call).
    Rng rng(909);
    ImageU8 img(61, 53);
    for (auto &b : img.data())
        b = static_cast<uint8_t>(rng.uniformInt(256));
    const BdCodec codec(4);

    ASSERT_EQ(setenv("FOVE_SIMD", "off", 1), 0);
    std::vector<uint8_t> scalar_stream;
    codec.encodeInto(img, nullptr, scalar_stream);
    ASSERT_EQ(unsetenv("FOVE_SIMD"), 0);

    std::vector<uint8_t> active_stream;
    codec.encodeInto(img, nullptr, active_stream);
    EXPECT_EQ(scalar_stream, active_stream);
    EXPECT_EQ(BdCodec::decode(active_stream), img);
}

TEST_P(SimdLevelTest, NanPixelsCountAndPlaceIdentically)
{
    // A NaN input pixel (upstream renderer bug) must flow through the
    // kernels exactly like the Scalar level, for every model and
    // extrema backend: no configuration rejects the tile (the
    // fixed-point datapath passes a non-finite ellipsoid through like
    // the double reference), both NaN pixels count as gamut clamps on
    // both candidates (C++ != is unordered-true, so NaN movements
    // count), and the candidate lanes are bitwise-identical (NaN
    // payloads included — compare representations, not values).
    for (const test::AdjustConfig &cfg : test::adjustConfigs()) {
        SCOPED_TRACE(cfg.name);
        const TileAdjuster scalar(*cfg.model, cfg.extrema,
                                  simd::SimdLevel::Scalar);
        const TileAdjuster level(*cfg.model, cfg.extrema, GetParam());
        Rng rng(707);
        const double nan = std::numeric_limits<double>::quiet_NaN();
        for (int trial = 0; trial < 10; ++trial) {
            auto tile = randomTile(rng, 16, 0.1, trial % 2 == 0);
            tile[3].y = nan;
            tile[8] = Vec3(nan, nan, nan);
            const std::vector<double> ecc(16, 25.0);

            simd::TileSoA a;
            simd::TileSoA b;
            fillSoA(a, tile, ecc);
            fillSoA(b, tile, ecc);
            TileOutcome oa;
            TileOutcome ob;
            ASSERT_NO_THROW(oa = level.adjustTile(a))
                << "trial " << trial;
            ASSERT_NO_THROW(ob = scalar.adjustTile(b))
                << "trial " << trial;
            expectOutcomesEqual(oa, ob);
            EXPECT_GE(oa.red.gamutClampedPixels, 2) << "trial " << trial;
            EXPECT_GE(oa.blue.gamutClampedPixels, 2)
                << "trial " << trial;
            expectLanesBitEqual(a, b, simd::kOutRedX, 6,
                                "trial " + std::to_string(trial));
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Levels, SimdLevelTest, ::testing::ValuesIn(availableLevels()),
    [](const ::testing::TestParamInfo<simd::SimdLevel> &info) {
        return simd::simdLevelName(info.param);
    });

TEST(SimdDispatch, FoveSimdOffForcesScalar)
{
    ASSERT_EQ(setenv("FOVE_SIMD", "off", 1), 0);
    EXPECT_EQ(simd::activeSimdLevel(), simd::SimdLevel::Scalar);
    // A TileAdjuster built under the override runs the scalar kernels
    // and still matches the default-dispatch adjuster bit for bit.
    const TileAdjuster forced(model());
    EXPECT_EQ(forced.simdLevel(), simd::SimdLevel::Scalar);
    ASSERT_EQ(unsetenv("FOVE_SIMD"), 0);
    EXPECT_EQ(simd::activeSimdLevel(), simd::detectedSimdLevel());

    Rng rng(505);
    const auto tile = randomTile(rng, 16, 0.1, false);
    const std::vector<double> ecc(16, 20.0);
    const TileAdjuster active(model());
    const TileAdjustment a = forced.adjustTile(tile, ecc);
    const TileAdjustment b = active.adjustTile(tile, ecc);
    EXPECT_EQ(a.red.bits, b.red.bits);
    EXPECT_EQ(a.blue.bits, b.blue.bits);
    EXPECT_EQ(a.red.adjusted, b.red.adjusted);
    EXPECT_EQ(a.blue.adjusted, b.blue.adjusted);
}

TEST(SimdDispatch, ScalarAliasesAreAccepted)
{
    for (const char *v : {"scalar", "0"}) {
        ASSERT_EQ(setenv("FOVE_SIMD", v, 1), 0);
        EXPECT_EQ(simd::activeSimdLevel(), simd::SimdLevel::Scalar);
    }
    ASSERT_EQ(setenv("FOVE_SIMD", "avx2", 1), 0);
    // Explicit requests are clamped to what the CPU supports.
    EXPECT_EQ(simd::activeSimdLevel(), simd::detectedSimdLevel());
    ASSERT_EQ(unsetenv("FOVE_SIMD"), 0);
}

} // namespace
} // namespace pce
