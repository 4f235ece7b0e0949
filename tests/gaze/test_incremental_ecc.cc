/**
 * @file
 * IncrementalEccentricity exactness/fallback contract
 * (gaze/incremental_ecc.hh): for a sweep of gaze deltas — sub-tile,
 * multi-tile, fractional, off-screen clamp, and the exact fallback
 * threshold edge — the in-place re-fixated map must (a) be
 * bit-identical to a fresh build inside every recomputed band, (b)
 * stay within the documented accumulated error bound everywhere else,
 * (c) cover the whole exact iso-eccentricity band so the encoder can
 * never falsely bypass a foveal tile, and (d) never reallocate its
 * storage (pointer pinning). Re-fixation fanned out to a ThreadPool
 * must produce the same bytes and the same RefixStats as the serial
 * update, for any participant count.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "common/thread_pool.hh"
#include "gaze/incremental_ecc.hh"
#include "image/image.hh"

namespace pce {
namespace {

DisplayGeometry
geometry(int w, int h, double fx, double fy)
{
    DisplayGeometry g;
    g.width = w;
    g.height = h;
    g.horizontalFovDeg = 100.0;
    g.fixationX = fx;
    g.fixationY = fy;
    return g;
}

/** Fresh exact build at the given fixation. */
EccentricityMap
freshMap(const DisplayGeometry &geom, double fx, double fy)
{
    DisplayGeometry g = geom;
    g.fixationX = fx;
    g.fixationY = fy;
    return EccentricityMap(g);
}

bool
inRect(const TileRect &r, int x, int y)
{
    return x >= r.x0 && x < r.x0 + r.w && y >= r.y0 && y < r.y0 + r.h;
}

/**
 * Assert the full contract of one re-fixated map against a fresh
 * build at the same fixation.
 */
void
expectContract(const EccentricityMap &inc, const EccentricityMap &fresh,
               const RefixStats &st, const IncrementalEccParams &params,
               const std::string &what)
{
    ASSERT_EQ(inc.width(), fresh.width());
    ASSERT_EQ(inc.height(), fresh.height());
    EXPECT_DOUBLE_EQ(inc.fixationX(), fresh.fixationX()) << what;
    EXPECT_DOUBLE_EQ(inc.fixationY(), fresh.fixationY()) << what;

    double max_err = 0.0;
    for (int y = 0; y < inc.height(); ++y) {
        for (int x = 0; x < inc.width(); ++x) {
            const double e_inc = inc.at(x, y);
            const double e_fresh = fresh.at(x, y);
            if (st.fullRebuild || inRect(st.exactRect, x, y)) {
                // Recomputed pixels are bit-identical to a fresh
                // build (same eccentricityDeg evaluation).
                ASSERT_EQ(e_inc, e_fresh)
                    << what << " exact pixel (" << x << "," << y << ")";
            } else {
                max_err = std::max(max_err, std::abs(e_inc - e_fresh));
            }
            // The always-exact band covers the iso-eccentricity
            // ellipse: any truly-foveal pixel must be exact.
            if (e_fresh <= params.exactBandDeg)
                ASSERT_TRUE(st.fullRebuild ||
                            inRect(st.exactRect, x, y))
                    << what << " in-band pixel (" << x << "," << y
                    << ") ecc " << e_fresh << " outside exactRect";
        }
    }
    EXPECT_LE(max_err, st.accumulatedErrorBoundDeg + 1e-12) << what;
}

TEST(IncrementalEcc, DeltaSweepMeetsContract)
{
    const int w = 96, h = 80;
    const DisplayGeometry geom = geometry(w, h, w / 2.0, h / 2.0);
    IncrementalEccParams params;
    params.maxShiftPx = 40.0;
    // The tiny test display has a ~40 px focal length, so per-step
    // bounds are tens of degrees; park the accumulation cap out of
    // the way to exercise the shift path and the maxShiftPx edge.
    params.maxAccumulatedErrorDeg = 1000.0;
    params.exactBandDeg = 12.0;

    const std::pair<double, double> deltas[] = {
        {0.0, 0.0},    {0.4, -0.3},  {1.0, 0.0},  {-3.0, 2.0},
        {2.5, 7.5},    {-9.0, -9.0}, {13.0, 0.0}, {0.0, -13.0},
        {35.0, 25.0},  // hypot 43 > maxShiftPx: fallback
    };
    for (const auto &[dx, dy] : deltas) {
        IncrementalEccentricity upd(geom, params);
        EccentricityMap map(geom);
        const double fx = geom.fixationX + dx;
        const double fy = geom.fixationY + dy;
        RefixStats st;
        upd.refixate(map, fx, fy, &st);

        const double d = std::hypot(dx, dy);
        EXPECT_EQ(st.fullRebuild, d > params.maxShiftPx)
            << "delta (" << dx << "," << dy << ")";
        const EccentricityMap fresh = freshMap(geom, fx, fy);
        expectContract(map, fresh, st, params,
                       "delta (" + std::to_string(dx) + "," +
                           std::to_string(dy) + ")");
        if (!st.fullRebuild) {
            EXPECT_LE(st.stepErrorBoundDeg,
                      IncrementalEccentricity::shiftErrorBoundDeg(
                          geom, dx, dy) + 1e-12);
            EXPECT_EQ(st.accumulatedErrorBoundDeg,
                      upd.accumulatedErrorBoundDeg());
        } else {
            EXPECT_EQ(upd.accumulatedErrorBoundDeg(), 0.0);
        }
    }
}

TEST(IncrementalEcc, ChainedRefixationsAccumulateWithinBound)
{
    const int w = 96, h = 96;
    const DisplayGeometry geom = geometry(w, h, 30.0, 40.0);
    IncrementalEccParams params;
    params.maxShiftPx = 20.0;
    params.maxAccumulatedErrorDeg = 1000.0;  // stay incremental
    IncrementalEccentricity upd(geom, params);
    EccentricityMap map(geom);

    // A pursuit-like walk; contract must hold after every step.
    double fx = 30.0, fy = 40.0;
    const std::pair<double, double> steps[] = {
        {2.0, 1.0}, {3.0, -1.5}, {2.0, 2.0}, {-1.0, 3.0}, {4.0, 0.0},
    };
    double expected_accum = 0.0;
    for (const auto &[dx, dy] : steps) {
        fx += dx;
        fy += dy;
        RefixStats st;
        upd.refixate(map, fx, fy, &st);
        ASSERT_FALSE(st.fullRebuild);
        expected_accum += st.stepErrorBoundDeg;
        EXPECT_NEAR(st.accumulatedErrorBoundDeg, expected_accum,
                    1e-12);
        expectContract(map, freshMap(geom, fx, fy), st, params,
                       "chained step");
    }
}

TEST(IncrementalEcc, AccumulatedErrorCapForcesRebuild)
{
    const int w = 64, h = 64;
    const DisplayGeometry geom = geometry(w, h, w / 2.0, h / 2.0);
    IncrementalEccParams params;
    params.maxShiftPx = 20.0;
    params.maxAccumulatedErrorDeg = 3.0;
    IncrementalEccentricity upd(geom, params);
    EccentricityMap map(geom);

    double fx = w / 2.0;
    bool saw_rebuild = false;
    for (int i = 0; i < 64 && !saw_rebuild; ++i) {
        fx += (i % 2 == 0) ? 2.0 : -2.0;  // jitter, no net motion
        RefixStats st;
        upd.refixate(map, fx, h / 2.0, &st);
        if (st.fullRebuild) {
            saw_rebuild = true;
            EXPECT_EQ(upd.accumulatedErrorBoundDeg(), 0.0);
            // After the reset the map is exact everywhere.
            const EccentricityMap fresh = freshMap(geom, fx, h / 2.0);
            for (int y = 0; y < h; ++y)
                for (int x = 0; x < w; ++x)
                    ASSERT_EQ(map.at(x, y), fresh.at(x, y));
        } else {
            EXPECT_LE(st.accumulatedErrorBoundDeg,
                      params.maxAccumulatedErrorDeg);
        }
    }
    EXPECT_TRUE(saw_rebuild)
        << "jitter never crossed the accumulation cap";
}

TEST(IncrementalEcc, ThresholdEdgeTakesIncrementalPathExactlyAt)
{
    const int w = 128, h = 128;
    const DisplayGeometry geom = geometry(w, h, w / 2.0, h / 2.0);
    IncrementalEccParams params;
    params.maxShiftPx = 16.0;
    params.maxAccumulatedErrorDeg = 1000.0;  // isolate the px check

    {
        IncrementalEccentricity upd(geom, params);
        EccentricityMap map(geom);
        RefixStats st;
        // |delta| == maxShiftPx exactly: still incremental.
        upd.refixate(map, geom.fixationX + 16.0, geom.fixationY, &st);
        EXPECT_FALSE(st.fullRebuild);
        EXPECT_GT(st.shiftedPixels, 0u);
    }
    {
        IncrementalEccentricity upd(geom, params);
        EccentricityMap map(geom);
        RefixStats st;
        // Just above the threshold: fallback. (A one-ulp overshoot
        // would be absorbed when added to the fixation coordinate, so
        // use a half-pixel.)
        upd.refixate(map, geom.fixationX + 16.5, geom.fixationY, &st);
        EXPECT_TRUE(st.fullRebuild);
        EXPECT_EQ(st.shiftedPixels, 0u);
    }
}

TEST(IncrementalEcc, OffScreenFixationIsClampedIntoDisplay)
{
    const int w = 64, h = 48;
    const DisplayGeometry geom = geometry(w, h, w / 2.0, h / 2.0);
    IncrementalEccParams params;
    params.maxShiftPx = 1e9;  // force the incremental path even here
    params.maxAccumulatedErrorDeg = 1e9;
    IncrementalEccentricity upd(geom, params);
    EccentricityMap map(geom);

    RefixStats st;
    upd.refixate(map, -50.0, 1e6, &st);
    EXPECT_TRUE(st.clamped);
    EXPECT_DOUBLE_EQ(map.fixationX(), 0.0);
    EXPECT_DOUBLE_EQ(map.fixationY(), static_cast<double>(h - 1));
    expectContract(map, freshMap(geom, 0.0, h - 1), st, params,
                   "clamped");

    // An in-display fixation is not clamped.
    upd.refixate(map, 10.0, 10.0, &st);
    EXPECT_FALSE(st.clamped);
}

TEST(IncrementalEcc, SteadyStateRefixationIsAllocationFree)
{
    const int w = 160, h = 120;
    const DisplayGeometry geom = geometry(w, h, w / 2.0, h / 2.0);
    IncrementalEccParams params;
    params.maxShiftPx = 8.0;
    params.maxAccumulatedErrorDeg = 2.0;  // rebuilds happen in-chain
    IncrementalEccentricity upd(geom, params);
    EccentricityMap map(geom);
    const double *storage = map.data();

    double fx = w / 2.0, fy = h / 2.0;
    bool saw_incremental = false, saw_rebuild = false;
    for (int i = 0; i < 48; ++i) {
        fx += ((i * 7) % 11) - 5.0;
        fy += ((i * 5) % 9) - 4.0;
        RefixStats st;
        upd.refixate(map, fx, fy, &st);
        (st.fullRebuild ? saw_rebuild : saw_incremental) = true;
        // Both paths reuse the same storage: the pointer never moves.
        ASSERT_EQ(map.data(), storage) << "step " << i;
        fx = map.fixationX();
        fy = map.fixationY();
    }
    EXPECT_TRUE(saw_incremental);
    EXPECT_TRUE(saw_rebuild);
}

TEST(IncrementalEcc, NoFalseFovealBypassAcrossAChain)
{
    // The property the encoder depends on: a tile whose fresh-map
    // minimum eccentricity is below the cutoff is never seen as
    // bypassable on the incremental map (the reverse direction —
    // extra adjusted tiles — is allowed and costs only work).
    const int w = 96, h = 96;
    const double cutoff = 5.0;
    const DisplayGeometry geom = geometry(w, h, 20.0, 70.0);
    IncrementalEccParams params;  // defaults: 12 >= 5 + 6 holds
    IncrementalEccentricity upd(geom, params);
    EccentricityMap map(geom);

    double fx = 20.0, fy = 70.0;
    const std::pair<double, double> steps[] = {
        {4.0, -3.0}, {6.0, 5.0}, {-2.0, 6.0}, {8.0, 0.0}, {3.0, -7.0},
    };
    for (const auto &[dx, dy] : steps) {
        fx += dx;
        fy += dy;
        upd.refixate(map, fx, fy);
        const EccentricityMap fresh = freshMap(geom, fx, fy);
        for (const TileRect &t : tileGrid(w, h, 8)) {
            if (fresh.minInRect(t) < cutoff)
                ASSERT_LT(map.minInRect(t), cutoff)
                    << "tile (" << t.x0 << "," << t.y0
                    << ") falsely bypassable";
        }
    }
}

TEST(IncrementalEcc, ShiftErrorBoundIsRigorousOnASweep)
{
    // Single-step empirical check of the documented bound on a
    // wide-FoV display (the worst case for the shift approximation).
    const int w = 128, h = 128;
    const DisplayGeometry geom = geometry(w, h, w / 2.0, h / 2.0);
    for (const auto &[dx, dy] : {std::pair<double, double>{4.0, 0.0},
                                 {0.0, 9.0},
                                 {7.0, -7.0}}) {
        IncrementalEccParams params;
        params.maxShiftPx = 32.0;
        params.maxAccumulatedErrorDeg = 1000.0;
        params.exactBandDeg = 0.0;  // measure the raw shift error
        IncrementalEccentricity upd(geom, params);
        EccentricityMap map(geom);
        RefixStats st;
        upd.refixate(map, geom.fixationX + dx, geom.fixationY + dy,
                     &st);
        ASSERT_FALSE(st.fullRebuild);
        const EccentricityMap fresh =
            freshMap(geom, geom.fixationX + dx, geom.fixationY + dy);
        double max_err = 0.0;
        for (int y = 0; y < h; ++y)
            for (int x = 0; x < w; ++x)
                if (!inRect(st.exactRect, x, y))
                    max_err = std::max(
                        max_err,
                        std::abs(map.at(x, y) - fresh.at(x, y)));
        EXPECT_LE(max_err, st.stepErrorBoundDeg)
            << "delta (" << dx << "," << dy << ")";
    }
}

TEST(IncrementalEcc, RejectsMismatchedMapAndBadParams)
{
    const DisplayGeometry geom = geometry(64, 64, 32.0, 32.0);
    IncrementalEccentricity upd(geom);
    EccentricityMap wrong(geometry(32, 32, 16.0, 16.0));
    EXPECT_THROW(upd.refixate(wrong, 10.0, 10.0),
                 std::invalid_argument);

    IncrementalEccParams bad;
    bad.maxAccumulatedErrorDeg = 0.0;
    EXPECT_THROW(IncrementalEccentricity(geom, bad),
                 std::invalid_argument);
    bad = IncrementalEccParams{};
    bad.maxShiftPx = -1.0;
    EXPECT_THROW(IncrementalEccentricity(geom, bad),
                 std::invalid_argument);
    bad = IncrementalEccParams{};
    bad.exactBandDeg = -0.1;
    EXPECT_THROW(IncrementalEccentricity(geom, bad),
                 std::invalid_argument);
}

TEST(IncrementalEcc, RebuildReusesStorageAndMatchesConstructor)
{
    DisplayGeometry g = geometry(80, 60, 40.0, 30.0);
    EccentricityMap map(g);
    const double *storage = map.data();
    g.fixationX = 11.0;
    g.fixationY = 52.0;
    map.rebuild(g);
    EXPECT_EQ(map.data(), storage);
    const EccentricityMap fresh(g);
    for (int y = 0; y < map.height(); ++y)
        for (int x = 0; x < map.width(); ++x)
            ASSERT_EQ(map.at(x, y), fresh.at(x, y));
}

/** Same bytes, same size: the serial and pooled maps agree exactly. */
void
expectSameMap(const EccentricityMap &a, const EccentricityMap &b,
              const char *what)
{
    ASSERT_EQ(a.width(), b.width()) << what;
    ASSERT_EQ(a.height(), b.height()) << what;
    EXPECT_EQ(a.fixationX(), b.fixationX()) << what;
    EXPECT_EQ(a.fixationY(), b.fixationY()) << what;
    EXPECT_EQ(std::memcmp(a.data(), b.data(),
                          sizeof(double) *
                              static_cast<std::size_t>(a.width()) *
                              static_cast<std::size_t>(a.height())),
              0)
        << what;
}

void
expectSameStats(const RefixStats &a, const RefixStats &b, int step)
{
    EXPECT_EQ(a.fullRebuild, b.fullRebuild) << "step " << step;
    EXPECT_EQ(a.clamped, b.clamped) << "step " << step;
    EXPECT_EQ(a.shiftedPixels, b.shiftedPixels) << "step " << step;
    EXPECT_EQ(a.recomputedPixels, b.recomputedPixels) << "step " << step;
    EXPECT_EQ(a.stepErrorBoundDeg, b.stepErrorBoundDeg)
        << "step " << step;
    EXPECT_EQ(a.accumulatedErrorBoundDeg, b.accumulatedErrorBoundDeg)
        << "step " << step;
    EXPECT_EQ(a.exactRect, b.exactRect) << "step " << step;
}

TEST(IncrementalEcc, PooledChainIsBitIdenticalToSerial)
{
    // Pool of 7 workers: participants up to 8, which exceeds every
    // band's row count on the 5-row display below.
    ThreadPool pool(7);
    struct Display
    {
        int w, h;
    };
    for (const Display d : {Display{96, 72}, Display{37, 29},
                            Display{40, 5}}) {
        const DisplayGeometry geom =
            geometry(d.w, d.h, d.w / 2.0, d.h / 2.0);
        IncrementalEccParams params;
        params.maxShiftPx = 16.0;
        params.maxAccumulatedErrorDeg = 20.0;
        params.exactBandDeg = 8.0;
        for (int participants : {2, 3, 4, 8}) {
            SCOPED_TRACE(::testing::Message()
                         << d.w << "x" << d.h << " participants "
                         << participants);
            IncrementalEccentricity serial(geom, params);
            IncrementalEccentricity pooled(geom, params);
            EccentricityMap serial_map(geom);
            EccentricityMap pooled_map(geom);
            const double *storage = pooled_map.data();

            // Sub-pixel, multi-tile, the exact threshold edge, an
            // off-screen clamp, jitter until the accumulation cap
            // forces a rebuild, and a fallback-sized jump.
            std::vector<std::pair<double, double>> deltas = {
                {0.3, -0.2}, {9.0, 6.0}, {-7.0, -4.0}, {16.0, 0.0},
                {-1e6, 3.0}, {2.0, 1e6}, {-20.0, 10.0}};
            for (int i = 0; i < 24; ++i)
                deltas.emplace_back(i % 2 == 0 ? 3.0 : -3.0,
                                    i % 3 == 0 ? -2.0 : 1.0);
            bool saw_rebuild = false, saw_incremental = false;
            for (std::size_t i = 0; i < deltas.size(); ++i) {
                const double fx = serial_map.fixationX() + deltas[i].first;
                const double fy =
                    serial_map.fixationY() + deltas[i].second;
                RefixStats st_serial, st_pooled;
                serial.refixate(serial_map, fx, fy, &st_serial);
                pooled.refixate(pooled_map, fx, fy, &st_pooled, &pool,
                                participants);
                expectSameStats(st_serial, st_pooled,
                                static_cast<int>(i));
                expectSameMap(serial_map, pooled_map, "refixate");
                ASSERT_EQ(pooled_map.data(), storage) << "step " << i;
                (st_pooled.fullRebuild ? saw_rebuild
                                       : saw_incremental) = true;
            }
            EXPECT_TRUE(saw_rebuild);
            EXPECT_TRUE(saw_incremental);

            // The recovery primitive, pooled.
            serial.rebuildAt(serial_map, 3.0, d.h - 2.0);
            pooled.rebuildAt(pooled_map, 3.0, d.h - 2.0, &pool,
                             participants);
            expectSameMap(serial_map, pooled_map, "rebuildAt");
            EXPECT_EQ(pooled_map.data(), storage);
        }
    }
}

TEST(IncrementalEcc, PooledGazeUpdateAndRecoveryMatchSerial)
{
    ThreadPool pool(3);
    const DisplayGeometry geom = geometry(80, 60, 40.0, 30.0);
    GazeTrackedEccentricity serial(geom);
    GazeTrackedEccentricity pooled(geom);
    serial.sealState();
    pooled.sealState();
    // 1 s apart: fixation; 1/72 s across the display: a saccade.
    const GazeSample samples[] = {{1.0, 41.0, 30.5}, {2.0, 45.0, 28.0},
                                  {2.0 + 1.0 / 72.0, 5.0, 55.0},
                                  {3.0, 5.0, 55.0},   {4.0, 6.5, 53.0}};
    int step = 0;
    for (const GazeSample &s : samples) {
        RefixStats st_serial, st_pooled;
        EXPECT_EQ(serial.update(s, &st_serial),
                  pooled.update(s, &st_pooled, &pool, 4));
        expectSameStats(st_serial, st_pooled, step++);
        expectSameMap(serial.map(), pooled.map(), "update");
    }
    EXPECT_EQ(pooled.fullRebuilds(), serial.fullRebuilds());
    EXPECT_EQ(pooled.deferredUpdates(), 1u);

    serial.mutableMap().data()[123] += 1.0;
    pooled.mutableMap().data()[123] += 1.0;
    EXPECT_FALSE(serial.verifyAndRecoverState());
    EXPECT_FALSE(pooled.verifyAndRecoverState(&pool, 4));
    expectSameMap(serial.map(), pooled.map(), "recovery");
    EXPECT_TRUE(pooled.verifyState());
}

TEST(IncrementalEcc, PooledRebuildMatchesSerialOnEveryShape)
{
    ThreadPool pool(3);
    struct Shape
    {
        int w, h;
    };
    for (const Shape sh : {Shape{1, 1}, Shape{1, 33}, Shape{33, 1},
                           Shape{17, 3}, Shape{80, 61}}) {
        DisplayGeometry g = geometry(sh.w, sh.h, sh.w * 0.25,
                                     sh.h * 0.75);
        const EccentricityMap serial(g);
        for (int participants : {2, 4, 64}) {
            EccentricityMap pooled(geometry(sh.w, sh.h, 0.0, 0.0));
            const double *storage = pooled.data();
            pooled.rebuild(g, &pool, participants);
            EXPECT_EQ(pooled.data(), storage);
            SCOPED_TRACE(::testing::Message()
                         << sh.w << "x" << sh.h << " participants "
                         << participants);
            expectSameMap(serial, pooled, "rebuild");
        }
    }
}

} // namespace
} // namespace pce
