#include "hw/fixed_datapath.hh"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "color/dkl.hh"
#include "common/rng.hh"

namespace pce {

Fixed
Fixed::fromDouble(double v, int frac_bits)
{
    if (frac_bits < 1 || frac_bits > 40)
        throw std::invalid_argument("Fixed: frac_bits out of range");
    const double scaled = v * static_cast<double>(int64_t(1) << frac_bits);
    return Fixed(static_cast<int64_t>(std::llround(scaled)), frac_bits);
}

double
Fixed::toDouble() const
{
    return static_cast<double>(raw_) /
           static_cast<double>(int64_t(1) << fracBits_);
}

Fixed
Fixed::operator+(const Fixed &o) const
{
    return Fixed(raw_ + o.raw_, fracBits_);
}

Fixed
Fixed::operator-(const Fixed &o) const
{
    return Fixed(raw_ - o.raw_, fracBits_);
}

Fixed
Fixed::operator*(const Fixed &o) const
{
    // Full-width product then round-to-nearest shift, as a synthesized
    // multiplier + shifter pair behaves.
    const __int128 prod =
        static_cast<__int128>(raw_) * static_cast<__int128>(o.raw_);
    const __int128 half = __int128(1) << (fracBits_ - 1);
    return Fixed(static_cast<int64_t>((prod + half) >> fracBits_),
                 fracBits_);
}

Fixed
Fixed::sqrt() const
{
    if (raw_ < 0)
        throw std::domain_error("Fixed::sqrt: negative input");
    if (raw_ == 0)
        return *this;
    // sqrt(raw / 2^F) * 2^F = sqrt(raw * 2^F): integer Newton on the
    // widened radicand.
    const __int128 radicand = static_cast<__int128>(raw_) << fracBits_;
    __int128 x = radicand;
    __int128 prev = 0;
    // Newton iterations converge quadratically; 64 caps pathological
    // starts.
    for (int i = 0; i < 64 && x != prev; ++i) {
        prev = x;
        x = (x + radicand / x) >> 1;
    }
    // Round to nearest: check (x+1)^2.
    if ((x + 1) * (x + 1) <= radicand)
        ++x;
    return Fixed(static_cast<int64_t>(x), fracBits_);
}

Fixed
Fixed::reciprocal() const
{
    if (raw_ == 0)
        throw std::domain_error("Fixed::reciprocal: zero input");
    // (1 * 2^F) / (raw / 2^F) = 2^(2F) / raw, rounded.
    const __int128 numer = __int128(1) << (2 * fracBits_);
    const __int128 q = (numer + raw_ / 2) / raw_;
    return Fixed(static_cast<int64_t>(q), fracBits_);
}

namespace {

/** Fixed-point 3-vector helpers over the same Q format. */
struct FixedVec3
{
    Fixed x, y, z;

    static FixedVec3
    fromVec(const Vec3 &v, int frac_bits)
    {
        return {Fixed::fromDouble(v.x, frac_bits),
                Fixed::fromDouble(v.y, frac_bits),
                Fixed::fromDouble(v.z, frac_bits)};
    }

    Vec3 toVec() const { return {x.toDouble(), y.toDouble(), z.toDouble()}; }

    Fixed
    dot(const FixedVec3 &o) const
    {
        return x * o.x + y * o.y + z * o.z;
    }

    FixedVec3
    cross(const FixedVec3 &o) const
    {
        return {y * o.z - z * o.y,
                z * o.x - x * o.z,
                x * o.y - y * o.x};
    }

    FixedVec3
    scale(const Fixed &s) const
    {
        return {x * s, y * s, z * s};
    }
};

/** 3x3 fixed matrix-vector product. */
FixedVec3
matVec(const Mat3 &m, const FixedVec3 &v, int frac_bits)
{
    FixedVec3 rows[3];
    for (int r = 0; r < 3; ++r)
        rows[r] = FixedVec3::fromVec(m.row(r), frac_bits);
    return {rows[0].dot(v), rows[1].dot(v), rows[2].dot(v)};
}

} // namespace

ExtremaPair
extremaAlongAxisFixed(const Ellipsoid &e, int axis,
                      const FixedDatapathConfig &config)
{
    if (axis < 0 || axis > 2)
        throw std::invalid_argument("extremaAlongAxisFixed: bad axis");
    // A non-finite ellipsoid (the ellipsoid of a NaN pixel) has no
    // fixed-point representation: converting it would be undefined
    // behaviour. Pass it through exactly as the double reference does,
    // so the caller counts it as a gamut clamp instead of failing the
    // frame.
    for (std::size_t i = 0; i < 3; ++i)
        if (!std::isfinite(e.centerDkl[i]) ||
            !std::isfinite(e.semiAxes[i]))
            return extremaAlongAxis(e, axis);
    const int f = config.fracBits;

    // Normalize the reciprocal semi-axes by the largest one so every
    // datapath value is O(1): n_i = a_min / a_i in (0, 1].
    const double a_min = e.semiAxes.minCoeff();
    const Vec3 n(a_min / e.semiAxes.x, a_min / e.semiAxes.y,
                 a_min / e.semiAxes.z);

    // Normalized quadric quadratic part: Q3' = M^T diag(n^2) M. This is
    // the Eq. 10 MAC-array stage; the scale factor a_min^2 cancels in
    // the Eq. 12 cross product (direction only).
    const Mat3 &m = rgb2dklMatrix();
    const Mat3 q3 =
        m.transpose() * Mat3::diagonal(n.cwiseMul(n)) * m;

    const int a1 = (axis + 1) % 3;
    const int a2 = (axis + 2) % 3;
    const FixedVec3 n1 = FixedVec3::fromVec(q3.row(a1) * 2.0, f);
    const FixedVec3 n2 = FixedVec3::fromVec(q3.row(a2) * 2.0, f);
    // Eq. 12: v = n1 x n2. The DKL matrix's opponent rows are near
    // negatives of each other, so the quadric is close to rank one and
    // the cross product suffers heavy cancellation: |v| can be 1e-3 of
    // the operand products. Hardware handles this the way synthesized
    // MAC trees do: the subtraction operates on the *full-width*
    // products (no truncation between multiplier and subtractor), and
    // the result is block-normalized (leading-zero count + barrel
    // shift) before entering the divider. The extrema *direction* is
    // all Eq. 13 needs, so the normalization shift cancels.
    FixedVec3 v;
    {
        // Full-width component differences at scale 2^(2f).
        const auto wide = [](const Fixed &a, const Fixed &b,
                             const Fixed &c, const Fixed &d) {
            return static_cast<__int128>(a.raw()) * b.raw() -
                   static_cast<__int128>(c.raw()) * d.raw();
        };
        const __int128 wx = wide(n1.y, n2.z, n1.z, n2.y);
        const __int128 wy = wide(n1.z, n2.x, n1.x, n2.z);
        const __int128 wz = wide(n1.x, n2.y, n1.y, n2.x);

        const auto absw = [](__int128 w) { return w < 0 ? -w : w; };
        const __int128 maxabs =
            std::max({absw(wx), absw(wy), absw(wz)});
        if (maxabs == 0)
            throw std::domain_error(
                "extremaAlongAxisFixed: extrema vector underflowed; "
                "datapath too narrow for this ellipsoid");

        // Normalize so the largest component sits near 1.0 in Q(f).
        int bits = 0;
        for (__int128 m = maxabs; m > 0; m >>= 1)
            ++bits;
        const int shift_right = bits - f;  // may be negative
        const auto renorm = [&](__int128 w) {
            const __int128 s = shift_right >= 0 ? (w >> shift_right)
                                                : (w << -shift_right);
            return Fixed::fromRaw(static_cast<int64_t>(s), f);
        };
        v = {renorm(wx), renorm(wy), renorm(wz)};
    }

    // Eq. 13a: x = M v.
    const FixedVec3 x = matVec(m, v, f);

    // Eq. 13b with the same normalization:
    // t = 1 / sqrt(sum x_i^2 / a_i^2) = a_min / sqrt(sum (x_i n_i)^2).
    // The products x_i * n_i can be ~1e-3 (thin ellipsoids), so this
    // stage also keeps full-width products and block-normalizes by a
    // *tracked* shift k (undone in the output scaling stage, where the
    // RTL folds it into the same barrel shifter as a_min).
    const FixedVec3 nfix = FixedVec3::fromVec(n, f);
    __int128 s[3] = {
        static_cast<__int128>(x.x.raw()) * nfix.x.raw(),
        static_cast<__int128>(x.y.raw()) * nfix.y.raw(),
        static_cast<__int128>(x.z.raw()) * nfix.z.raw(),
    };
    const auto absw = [](__int128 w) { return w < 0 ? -w : w; };
    const __int128 s_max = std::max({absw(s[0]), absw(s[1]), absw(s[2])});
    if (s_max == 0)
        throw std::domain_error(
            "extremaAlongAxisFixed: norm underflowed; datapath too "
            "narrow for this ellipsoid");
    int s_bits = 0;
    for (__int128 m = s_max; m > 0; m >>= 1)
        ++s_bits;
    const int k = 2 * f - s_bits;  // left-shift to bring max near 1.0
    Fixed sh[3];
    for (int i = 0; i < 3; ++i) {
        const __int128 shifted = k >= 0 ? (s[i] << k) : (s[i] >> -k);
        sh[i] = Fixed::fromRaw(static_cast<int64_t>(shifted >> f), f);
    }
    // sh represents S * 2^k with S = x (.) n; norm' = |S| * 2^k.
    const Fixed norm =
        (sh[0] * sh[0] + sh[1] * sh[1] + sh[2] * sh[2]).sqrt();
    // The divider: t' = 1/norm' = t * 2^-k.
    const Fixed t_prime = norm.reciprocal();

    // Eq. 13c: H/L = M^-1 (kappa +/- x * t), t = a_min * t' * 2^k.
    const FixedVec3 xt = x.scale(t_prime);
    const Vec3 offset_dkl = xt.toVec() * (a_min * std::ldexp(1.0, k));

    const Mat3 &inv = dkl2rgbMatrix();
    const Vec3 p_plus = inv * (e.centerDkl + offset_dkl);
    const Vec3 p_minus = inv * (e.centerDkl - offset_dkl);

    ExtremaPair pair;
    if (p_plus[axis] >= p_minus[axis]) {
        pair.high = p_plus;
        pair.low = p_minus;
    } else {
        pair.high = p_minus;
        pair.low = p_plus;
    }
    return pair;
}

FixedDatapathError
compareFixedDatapath(const DiscriminationModel &model, int samples,
                     const FixedDatapathConfig &config)
{
    Rng rng(0xf1);
    FixedDatapathError err;
    double sq_sum = 0.0;
    std::size_t n = 0;
    for (int i = 0; i < samples; ++i) {
        const Vec3 rgb(rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95),
                       rng.uniform(0.05, 0.95));
        const Ellipsoid e =
            model.ellipsoidFor(rgb, rng.uniform(5.0, 40.0));
        for (int axis : {0, 2}) {
            const ExtremaPair ref = extremaAlongAxis(e, axis);
            const ExtremaPair fix =
                extremaAlongAxisFixed(e, axis, config);
            for (const auto &[a, b] :
                 {std::pair(ref.high, fix.high),
                  std::pair(ref.low, fix.low)}) {
                for (int k = 0; k < 3; ++k) {
                    const double d = std::abs(a[k] - b[k]);
                    err.maxAbsError = std::max(err.maxAbsError, d);
                    sq_sum += d * d;
                    ++n;
                }
            }
            err.maxMembership = std::max(
                {err.maxMembership, e.membership(rgbToDkl(fix.high)),
                 e.membership(rgbToDkl(fix.low))});
        }
    }
    err.rmsError = n == 0 ? 0.0 : std::sqrt(sq_sum / n);
    return err;
}

} // namespace pce
