#include "perception/display.hh"

#include <algorithm>
#include <cmath>

#include "common/thread_pool.hh"

namespace pce {

double
DisplayGeometry::focalPixels() const
{
    const double half_fov_rad = horizontalFovDeg * M_PI / 180.0 / 2.0;
    return (width / 2.0) / std::tan(half_fov_rad);
}

double
DisplayGeometry::eccentricityDeg(double x, double y) const
{
    const double f = focalPixels();
    // Rays from the eye through the display plane at distance f.
    const Vec3 gaze(fixationX - width / 2.0, fixationY - height / 2.0, f);
    const Vec3 pix(x - width / 2.0, y - height / 2.0, f);
    const double cosang =
        std::clamp(gaze.dot(pix) / (gaze.norm() * pix.norm()), -1.0, 1.0);
    return std::acos(cosang) * 180.0 / M_PI;
}

double
DisplayGeometry::maxEccentricityDeg() const
{
    double m = 0.0;
    const double xs[] = {0.0, static_cast<double>(width - 1)};
    const double ys[] = {0.0, static_cast<double>(height - 1)};
    for (double x : xs)
        for (double y : ys)
            m = std::max(m, eccentricityDeg(x, y));
    return m;
}

EccentricityMap::EccentricityMap(const DisplayGeometry &geom)
    : width_(0), height_(0), fixationX_(0.0), fixationY_(0.0)
{
    rebuild(geom);
}

void
EccentricityMap::rebuild(const DisplayGeometry &geom, ThreadPool *pool,
                         int participants)
{
    width_ = geom.width;
    height_ = geom.height;
    fixationX_ = geom.fixationX;
    fixationY_ = geom.fixationY;
    // resize() keeps the capacity (and skips the redundant fill when
    // the size is unchanged): a same-size rebuild — the per-frame
    // re-fixation fallback — never reallocates.
    ecc_.resize(static_cast<std::size_t>(width_) * height_);
    const auto rows = [&](std::size_t y0, std::size_t y1, int) {
        for (int y = static_cast<int>(y0); y < static_cast<int>(y1); ++y)
            for (int x = 0; x < width_; ++x)
                ecc_[static_cast<std::size_t>(y) * width_ + x] =
                    geom.eccentricityDeg(x, y);
    };
    if (pool != nullptr && participants > 1 && height_ > 1)
        pool->parallelFor(static_cast<std::size_t>(height_), 4,
                          participants, rows);
    else
        rows(0, static_cast<std::size_t>(height_), 0);
}

double
EccentricityMap::minInRect(const TileRect &rect) const
{
    const int x1 = rect.x0 + rect.w - 1;
    const int y1 = rect.y0 + rect.h - 1;
    double m = 1e300;

    // Fixation inside (with half-pixel slack): the interior can hold
    // the minimum — scan everything. At most one tile per frame.
    if (fixationX_ >= rect.x0 - 0.5 && fixationX_ <= x1 + 0.5 &&
        fixationY_ >= rect.y0 - 0.5 && fixationY_ <= y1 + 0.5) {
        for (int y = rect.y0; y <= y1; ++y)
            for (int x = rect.x0; x <= x1; ++x)
                m = std::min(m, at(x, y));
        return m;
    }

    // Otherwise the minimum lies on the boundary (see header).
    for (int x = rect.x0; x <= x1; ++x) {
        m = std::min(m, at(x, rect.y0));
        m = std::min(m, at(x, y1));
    }
    for (int y = rect.y0; y <= y1; ++y) {
        m = std::min(m, at(rect.x0, y));
        m = std::min(m, at(x1, y));
    }
    return m;
}

double
EccentricityMap::fractionBeyond(double deg) const
{
    if (ecc_.empty())
        return 0.0;
    const auto n = static_cast<double>(
        std::count_if(ecc_.begin(), ecc_.end(),
                      [deg](double e) { return e > deg; }));
    return n / static_cast<double>(ecc_.size());
}

} // namespace pce
