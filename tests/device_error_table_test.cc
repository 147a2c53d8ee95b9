/**
 * @file
 * SHA-256 pins of every value an error model's table answers: the
 * per-outcome log-probabilities after and before STS, the
 * stop-in-middle floors, the success and at-least sums, and the
 * outcome stream sample() draws, at every tabulated distance and
 * with STS on and off. A change to how a model is built, scaled or
 * sampled that moves a single bit moves a digest.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "device/error_model.hh"
#include "device/fitted_model.hh"
#include "util/hash.hh"

namespace rtm
{
namespace
{

/** Longest shift the pins cover (a 64-domain segment's last shift). */
constexpr int kPinnedDistance = 63;

/** SHA-256 of every query `m` answers for distances 1..63. */
std::string
valueDigest(const PositionErrorModel &m)
{
    Sha256 h;
    const int kmax = m.maxStepError();
    h.updateValue(kmax);
    for (int d = 1; d <= kPinnedDistance; ++d) {
        for (int mag = 1; mag <= kmax; ++mag) {
            for (int sign : {+1, -1}) {
                h.updateValue(m.logProbStep(d, sign * mag));
                h.updateValue(m.logProbStepRaw(d, sign * mag));
            }
        }
        for (int floor_k = -kmax; floor_k < kmax; ++floor_k)
            h.updateValue(m.logProbStopInMiddle(d, floor_k));
        h.updateValue(m.logProbSuccess(d));
        for (int mag = 0; mag <= kmax + 1; ++mag)
            h.updateValue(m.logProbAtLeast(d, mag));
    }
    return h.hexDigest();
}

/** SHA-256 of 40 rounds of samples at distances 1..63 with STS on
 *  and off, and of the next rng word (the draws consumed). */
std::string
sampleDigest(const PositionErrorModel &m)
{
    Sha256 h;
    Rng rng(0x7ab1e);
    for (int rep = 0; rep < 40; ++rep) {
        for (bool sts : {true, false}) {
            for (int d = 1; d <= kPinnedDistance; ++d) {
                ShiftOutcome out = m.sample(rng, d, sts);
                h.updateValue(out.step_error);
                h.updateValue(static_cast<uint8_t>(out.stop_in_middle));
            }
        }
    }
    h.updateValue(rng.next());
    return h.hexDigest();
}

void
expectPinned(const PositionErrorModel &m, const char *values,
             const char *samples)
{
    EXPECT_EQ(valueDigest(m), values);
    EXPECT_EQ(sampleDigest(m), samples);
}

TEST(ErrorTable, PaperValuesArePinned)
{
    expectPinned(
        PaperCalibratedErrorModel(),
        "fe72962e0f629dfb3ae28187621e47d3a9f4f4a03bb1649ad03ce4677e9e401f",
        "b44c817e08efeb7215cbf238193b4ec56b69f819ffc2eb5a4671914a2a9d3f92");
}

TEST(ErrorTable, FittedValuesArePinned)
{
    expectPinned(
        FittedErrorModel(),
        "ee2dd7234bfbd39c359a2f9220d2e6f750b030d8cc256f1974dc9ed93660e0b7",
        "51e0ca32ad316b0dbd0165e7bc9b2f75e1ef611bef019d12ba5ac3220e02334b");
}

TEST(ErrorTable, ScaledValuesArePinned)
{
    struct Pin
    {
        double factor;
        const char *values;
        const char *samples;
    };
    const Pin pins[] = {
        {1.0,
         "fe72962e0f629dfb3ae28187621e47d3a9f4f4a03bb1649ad03ce4677e9e401f",
         "b44c817e08efeb7215cbf238193b4ec56b69f819ffc2eb5a4671914a2a9d3f92"},
        {50.0,
         "b7bac149e3508bd321b25a34f0d979ba7fb21812cfe0dad3d76ff3e3c191b15a",
         "82ba36e002681ee06876e6a2650a5b0b77661125d3f37693e93c92631b50aa98"},
        {2000.0,
         "157f8f11198ae1ff42c2d03b89a2f4c697e48070dfc7b45eed102bdf4f003cf2",
         "3638d85a087002ed3e4484a8340a8ec9343983168853a50694b481b08a604f58"},
        {1e6,
         "1df093a87add7d8a00ae163e8169a07d5381805b175c77f0a0247a7c558aa640",
         "b65af0a6501e8455b4e689c3133b3bbe564cb01f22ab9eae89832a2769bfc9b8"},
    };
    auto base = std::make_shared<PaperCalibratedErrorModel>();
    for (const Pin &pin : pins) {
        SCOPED_TRACE(pin.factor);
        expectPinned(ScaledErrorModel(base, pin.factor), pin.values,
                     pin.samples);
    }
}

TEST(ErrorTable, EmptyScriptValuesArePinned)
{
    expectPinned(
        ScriptedErrorModel(),
        "d7b61da3d3fca526930a20cffea524ddcfce17f75a44541c4e00a0104b75f84b",
        "faf406e6f6b1e37632ee35ce4510b5d870f2e039d082bdbdc8739a6480aa25cc");
}

} // namespace
} // namespace rtm
