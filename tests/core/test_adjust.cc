/**
 * @file
 * Tests for the per-tile color adjustment (paper Sec. 3.3-3.4, Fig. 6).
 */

#include <gtest/gtest.h>

#include "bd/bd_codec.hh"
#include "color/dkl.hh"
#include "color/srgb.hh"
#include "common/rng.hh"
#include "core/adjust.hh"
#include "core/quadric.hh"
#include "core/reference_solver.hh"

namespace pce {
namespace {

const AnalyticDiscriminationModel &
model()
{
    static const AnalyticDiscriminationModel m;
    return m;
}

/** A random tile of colors around a base color (typical tile locality). */
std::vector<Vec3>
randomTile(Rng &rng, std::size_t n, double spread)
{
    const Vec3 base(rng.uniform(0.15, 0.85), rng.uniform(0.15, 0.85),
                    rng.uniform(0.15, 0.85));
    std::vector<Vec3> tile;
    for (std::size_t i = 0; i < n; ++i) {
        Vec3 p = base + Vec3(rng.uniform(-spread, spread),
                             rng.uniform(-spread, spread),
                             rng.uniform(-spread, spread));
        tile.push_back(p.clamped(0.0, 1.0));
    }
    return tile;
}

class AdjustAxisTest : public ::testing::TestWithParam<int>
{};

TEST_P(AdjustAxisTest, AdjustedColorsStayInsideTheirEllipsoids)
{
    // The perceptual constraint Eq. 7d: every adjusted color must stay
    // within its own discrimination ellipsoid.
    const int axis = GetParam();
    const TileAdjuster adjuster(model());
    Rng rng(1 + axis);
    for (int trial = 0; trial < 60; ++trial) {
        const auto tile = randomTile(rng, 16, 0.05);
        const std::vector<double> ecc(16, rng.uniform(6.0, 35.0));
        const auto result = adjuster.adjustTile(tile, ecc).axis(axis);
        for (std::size_t i = 0; i < tile.size(); ++i) {
            const Ellipsoid e = model().ellipsoidFor(tile[i], ecc[i]);
            EXPECT_LE(e.membership(rgbToDkl(result.adjusted[i])),
                      1.0 + 1e-6)
                << "trial " << trial << " pixel " << i;
        }
    }
}

TEST_P(AdjustAxisTest, SpreadNeverIncreases)
{
    const int axis = GetParam();
    const TileAdjuster adjuster(model());
    Rng rng(4 + axis);
    for (int trial = 0; trial < 60; ++trial) {
        const auto tile = randomTile(rng, 16, 0.08);
        const std::vector<double> ecc(16, rng.uniform(6.0, 35.0));
        const auto result = adjuster.adjustTile(tile, ecc).axis(axis);
        EXPECT_LE(channelSpread(result.adjusted, axis),
                  channelSpread(tile, axis) + 1e-12);
    }
}

TEST_P(AdjustAxisTest, AdjustedColorsStayInGamut)
{
    const int axis = GetParam();
    const TileAdjuster adjuster(model());
    Rng rng(7 + axis);
    for (int trial = 0; trial < 60; ++trial) {
        // Tiles near the gamut boundary to exercise the clamping.
        std::vector<Vec3> tile;
        for (int i = 0; i < 16; ++i)
            tile.push_back(Vec3(rng.uniform(), rng.uniform(),
                                rng.uniform(0.9, 1.0)));
        const std::vector<double> ecc(16, 30.0);
        const auto result = adjuster.adjustTile(tile, ecc).axis(axis);
        for (const Vec3 &p : result.adjusted) {
            EXPECT_GE(p.minCoeff(), -1e-12);
            EXPECT_LE(p.maxCoeff(), 1.0 + 1e-12);
        }
    }
}

TEST_P(AdjustAxisTest, Case2CollapsesChannelWithoutGamutPressure)
{
    // Identical pixels trivially admit a common plane: after adjustment
    // the channel spread must be exactly zero and nothing should move
    // (the common plane passes through the original value).
    const int axis = GetParam();
    const TileAdjuster adjuster(model());
    const std::vector<Vec3> tile(16, Vec3(0.5, 0.5, 0.5));
    const std::vector<double> ecc(16, 20.0);
    const auto result = adjuster.adjustTile(tile, ecc).axis(axis);
    EXPECT_EQ(result.adjustCase, AdjustCase::C2);
    EXPECT_NEAR(channelSpread(result.adjusted, axis), 0.0, 1e-12);
}

TEST_P(AdjustAxisTest, NearbyColorsCollapseToCommonPlane)
{
    // Colors within a JND of each other fall into case 2 (Fig. 6b): the
    // optimized channel needs zero delta bits.
    const int axis = GetParam();
    const TileAdjuster adjuster(model());
    Rng rng(10 + axis);
    for (int trial = 0; trial < 40; ++trial) {
        const auto tile = randomTile(rng, 16, 0.004);
        const std::vector<double> ecc(16, 30.0);
        const auto result = adjuster.adjustTile(tile, ecc).axis(axis);
        if (result.adjustCase == AdjustCase::C2 &&
            result.gamutClampedPixels == 0) {
            EXPECT_NEAR(channelSpread(result.adjusted, axis), 0.0,
                        1e-9);
        }
    }
}

TEST_P(AdjustAxisTest, CaseClassificationMatchesPlanes)
{
    const int axis = GetParam();
    const TileAdjuster adjuster(model());
    Rng rng(13 + axis);
    for (int trial = 0; trial < 40; ++trial) {
        const auto tile = randomTile(rng, 16, 0.15);
        const std::vector<double> ecc(16, rng.uniform(6.0, 35.0));
        const auto result = adjuster.adjustTile(tile, ecc).axis(axis);
        if (result.adjustCase == AdjustCase::C1)
            EXPECT_GT(result.hlPlane, result.lhPlane);
        else
            EXPECT_LE(result.hlPlane, result.lhPlane);
    }
}

TEST_P(AdjustAxisTest, Case1SpreadBoundedByPlaneGap)
{
    const int axis = GetParam();
    const TileAdjuster adjuster(model());
    Rng rng(16 + axis);
    int case1_seen = 0;
    for (int trial = 0; trial < 200 && case1_seen < 10; ++trial) {
        const auto tile = randomTile(rng, 16, 0.3);
        const std::vector<double> ecc(16, 8.0);
        const auto result = adjuster.adjustTile(tile, ecc).axis(axis);
        if (result.adjustCase != AdjustCase::C1 ||
            result.gamutClampedPixels > 0)
            continue;
        ++case1_seen;
        EXPECT_LE(channelSpread(result.adjusted, axis),
                  result.hlPlane - result.lhPlane + 1e-9);
    }
    EXPECT_GT(case1_seen, 0) << "no case-1 tiles sampled";
}

INSTANTIATE_TEST_SUITE_P(Axes, AdjustAxisTest, ::testing::Values(0, 2));

TEST(AdjustTile, PicksTheCheaperAxis)
{
    const TileAdjuster adjuster(model());
    Rng rng(30);
    for (int trial = 0; trial < 40; ++trial) {
        const auto tile = randomTile(rng, 16, 0.05);
        const std::vector<double> ecc(16, rng.uniform(6.0, 35.0));
        const auto result = adjuster.adjustTile(tile, ecc);
        // Each candidate's cost is the codec's accounting of its
        // quantized pixels, and the cheaper one is kept.
        EXPECT_EQ(result.red.bits, bdTileBits(result.red.adjusted));
        EXPECT_EQ(result.blue.bits, bdTileBits(result.blue.adjusted));
        EXPECT_EQ(bdTileBits(result.chosen().adjusted),
                  std::min(result.red.bits, result.blue.bits));
        if (result.chosenAxis == 0)
            EXPECT_LT(result.red.bits, result.blue.bits);
        else
            EXPECT_LE(result.blue.bits, result.red.bits);
    }
}

TEST(AdjustTile, NeverWorseThanUnadjustedBd)
{
    // The whole point (Sec. 3.1): adjustment reduces delta magnitudes,
    // so the BD cost of the adjusted tile is at most the original cost.
    const TileAdjuster adjuster(model());
    Rng rng(31);
    for (int trial = 0; trial < 100; ++trial) {
        const auto tile = randomTile(rng, 16, rng.uniform(0.0, 0.1));
        const std::vector<double> ecc(16, rng.uniform(6.0, 35.0));
        const auto result = adjuster.adjustTile(tile, ecc);
        EXPECT_LE(bdTileBits(result.chosen().adjusted),
                  bdTileBits(tile) + 3)
            << "trial " << trial;
        // +3 bits of slack: quantization of moved colors can shift a
        // channel's range across a power-of-two boundary in rare cases.
    }
}

TEST(AdjustTile, RejectsSizeMismatch)
{
    const TileAdjuster adjuster(model());
    const std::vector<Vec3> tile(4, Vec3(0.5, 0.5, 0.5));
    const std::vector<double> ecc(3, 10.0);
    EXPECT_THROW(adjuster.adjustTile(tile, ecc), std::invalid_argument);
}

TEST(AdjustTile, EmptyTileIsNoop)
{
    const TileAdjuster adjuster(model());
    const auto result = adjuster.adjustTile({}, {});
    EXPECT_TRUE(result.red.adjusted.empty());
    EXPECT_TRUE(result.blue.adjusted.empty());
}

TEST(AdjustTile, ArenaReuseAcrossTilesLeaksNoState)
{
    // One planar arena reused across tiles of varying size (including
    // the ragged edge-tile shapes) must match fresh-arena results.
    const TileAdjuster adjuster(model());
    Rng rng(41);
    simd::TileSoA reused;
    const std::size_t sizes[] = {16, 4, 16, 12, 8, 16, 2, 1, 16};
    for (const std::size_t n : sizes) {
        const auto tile = randomTile(rng, n, 0.08);
        const std::vector<double> ecc(n, rng.uniform(6.0, 35.0));

        reused.resize(n);
        for (std::size_t i = 0; i < n; ++i) {
            reused.lane(simd::kPx)[i] = tile[i].x;
            reused.lane(simd::kPy)[i] = tile[i].y;
            reused.lane(simd::kPz)[i] = tile[i].z;
            reused.lane(simd::kEcc)[i] = ecc[i];
        }
        const TileOutcome a = adjuster.adjustTile(reused);
        const TileAdjustment b = adjuster.adjustTile(tile, ecc);

        EXPECT_EQ(a.chosenAxis, b.chosenAxis);
        EXPECT_EQ(a.red.bits, b.red.bits);
        EXPECT_EQ(a.blue.bits, b.blue.bits);
        EXPECT_EQ(a.red.gamutClampedPixels, b.red.gamutClampedPixels);
        EXPECT_EQ(a.blue.gamutClampedPixels,
                  b.blue.gamutClampedPixels);
        const bool red = a.chosenAxis == 0;
        const int x = red ? simd::kOutRedX : simd::kOutBlueX;
        ASSERT_EQ(b.chosen().adjusted.size(), n);
        for (std::size_t i = 0; i < n; ++i)
            EXPECT_EQ(Vec3(reused.lane(x)[i], reused.lane(x + 1)[i],
                           reused.lane(x + 2)[i]),
                      b.chosen().adjusted[i]);
    }
}

TEST(BdTileBits, FromCodesMatchesLinearPath)
{
    Rng rng(42);
    for (int trial = 0; trial < 20; ++trial) {
        const auto tile = randomTile(rng, 16, 0.1);
        std::vector<uint8_t> codes(tile.size() * 3);
        linearToSrgb8(tile.data(), tile.size(), codes.data());
        EXPECT_EQ(bdTileBitsFromCodes(codes.data(), tile.size()),
                  bdTileBits(tile));
    }
}

TEST(BdTileBits, MatchesManualAccounting)
{
    // Two-pixel tile with known sRGB values.
    std::vector<Vec3> tile{Vec3(0.0, 0.0, 0.0), Vec3(0.0, 0.0, 0.0)};
    // Flat tile: every channel has range 0 -> only meta+base per channel.
    EXPECT_EQ(bdTileBits(tile), 3u * (4 + 8));
}

} // namespace
} // namespace pce
