/**
 * @file
 * The discrimination-model / extrema-backend configurations the
 * tile-adjust exactness sweeps run (tests/simd, tests/core): the
 * analytic model with the default backend, whose ellipsoid and extrema
 * lanes come from the SIMD kernels, plus every configuration whose
 * ellipsoid or extrema lanes TileAdjuster fills with a scalar loop.
 */

#ifndef PCE_TESTS_SUPPORT_ADJUST_CONFIGS_HH
#define PCE_TESTS_SUPPORT_ADJUST_CONFIGS_HH

#include <string>
#include <vector>

#include "core/adjust.hh"
#include "core/quadric.hh"
#include "hw/fixed_datapath.hh"
#include "perception/adaptation.hh"
#include "perception/discrimination.hh"
#include "perception/rbf.hh"

namespace pce::test {

/** One model + extrema backend pairing. */
struct AdjustConfig
{
    std::string name;
    const DiscriminationModel *model = nullptr;
    ExtremaFn extrema;
    /** Extrema in double precision (Eq. 11-13), not fixed point. */
    bool doublePrecision = true;
};

inline ExtremaFn
fixedExtrema(int frac_bits)
{
    return [frac_bits](const Ellipsoid &e, int axis) {
        return extremaAlongAxisFixed(e, axis,
                                     FixedDatapathConfig{frac_bits});
    };
}

/** Every configuration of the sweep (models are process-lifetime). */
inline const std::vector<AdjustConfig> &
adjustConfigs()
{
    static const AnalyticDiscriminationModel analytic;
    static const ScaledDiscriminationModel scaled(analytic, 1.5);
    static const DarkAdaptationModel dark(analytic, 1.0);
    static const RbfDiscriminationModel rbf(analytic);
    static const std::vector<AdjustConfig> configs = {
        {"analytic", &analytic, {}, true},
        {"scaled_1.5", &scaled, {}, true},
        {"dark_adaptation_1cdm2", &dark, {}, true},
        {"rbf", &rbf, {}, true},
        {"fixed_16", &analytic, fixedExtrema(16), false},
        {"fixed_24", &analytic, fixedExtrema(24), false},
        {"extrema_along_axis", &analytic,
         [](const Ellipsoid &e, int axis) {
             return extremaAlongAxis(e, axis);
         },
         true},
    };
    return configs;
}

} // namespace pce::test

#endif // PCE_TESTS_SUPPORT_ADJUST_CONFIGS_HH
