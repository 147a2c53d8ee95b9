#include "cyclic.hh"

#include <functional>

#include "util/logging.hh"

namespace rtm
{

namespace
{

/**
 * FKM (Fredricksen-Kessler-Maiorana) construction of the
 * lexicographically least binary de Bruijn sequence B(2, n):
 * concatenation of Lyndon words of length dividing n.
 */
std::vector<uint8_t>
deBruijn(int n)
{
    std::vector<uint8_t> sequence;
    std::vector<int> a(static_cast<size_t>(2 * n), 0);
    // Recursive generation, iteratively via explicit lambda.
    std::function<void(int, int)> db = [&](int t, int p) {
        if (t > n) {
            if (n % p == 0)
                for (int j = 1; j <= p; ++j)
                    sequence.push_back(
                        static_cast<uint8_t>(a[static_cast<size_t>(j)]));
            return;
        }
        a[static_cast<size_t>(t)] = a[static_cast<size_t>(t - p)];
        db(t + 1, p);
        for (int j = a[static_cast<size_t>(t - p)] + 1; j < 2; ++j) {
            a[static_cast<size_t>(t)] = j;
            db(t + 1, t);
        }
    };
    db(1, 1);
    return sequence;
}

} // anonymous namespace

CyclicCode::CyclicCode(int window_bits)
    : window_(window_bits), period_(1 << window_bits)
{
    if (window_bits < 1 || window_bits > 16)
        rtm_fatal("CyclicCode window must be in [1,16], got %d",
                  window_bits);
    // bitAt, decode and the layout's expected phases reduce by the
    // period with a mask, which needs T to be a power of two.
    if ((period_ & (period_ - 1)) != 0)
        rtm_panic("period %d is not a power of two", period_);
    sequence_ = deBruijn(window_bits);
    if (static_cast<int>(sequence_.size()) != period_)
        rtm_panic("de Bruijn length %zu != period %d",
                  sequence_.size(), period_);
    phase_lookup_.assign(static_cast<size_t>(period_), -1);
    for (int phase = 0; phase < period_; ++phase) {
        int value = 0;
        for (int i = 0; i < window_; ++i) {
            int idx = (phase + i) % period_;
            value = (value << 1) |
                    sequence_[static_cast<size_t>(idx)];
        }
        if (phase_lookup_[static_cast<size_t>(value)] != -1)
            rtm_panic("window value %d is not unique", value);
        phase_lookup_[static_cast<size_t>(value)] = phase;
    }
}

Bit
CyclicCode::bitAt(int64_t index) const
{
    // T = 2^w, so the mask is the non-negative residue of any index.
    const int64_t m = index & static_cast<int64_t>(period_ - 1);
    return sequence_[static_cast<size_t>(m)] ? Bit::One : Bit::Zero;
}

int
CyclicCode::phaseOf(const std::vector<Bit> &window_bits) const
{
    if (static_cast<int>(window_bits.size()) != window_)
        return -1;
    uint32_t value = 0;
    for (Bit b : window_bits) {
        // Only defined domains decode; X (freshly injected or
        // misaligned) and any out-of-range raw lane value make the
        // whole window unreadable rather than aliasing to a phase.
        if (b != Bit::Zero && b != Bit::One)
            return -1;
        value = (value << 1) | static_cast<uint32_t>(b);
    }
    return phaseOfValue(value);
}

DecodeResult
CyclicCode::decode(int observed, int expected,
                   int correct_strength) const
{
    DecodeResult res;
    if (observed < 0 || observed >= period_) {
        // Unreadable window (stop-in-middle, destroyed domains, or a
        // phase that is no phase at all): an error is evident, but
        // its direction is unknowable.
        res.valid = false;
        res.detected = true;
        res.correctable = false;
        return res;
    }
    if (2 * correct_strength + 2 > period_)
        rtm_fatal("correction strength %d exceeds what a period-%d "
                  "code can disambiguate", correct_strength, period_);
    res.valid = true;
    // The window phase equals (base - offset_true) mod T while the
    // expectation uses the believed offset, so the residue recovers
    // e = offset_true - offset_believed as (expected - observed).
    // T = 2^w (asserted at construction), so masking with T - 1 is
    // the non-negative residue of any int difference.
    const int t = period_;
    const int diff = (expected - observed) & (t - 1);
    if (diff == 0)
        return res; // ok
    res.detected = true;
    if (diff <= correct_strength) {
        res.correctable = true;
        res.step_error = diff;
    } else if (t - diff <= correct_strength) {
        res.correctable = true;
        res.step_error = -(t - diff);
    } else {
        // Residue outside +/-m: detectable only. For T = 2m+2 this is
        // exactly the +/-(m+1) alias the paper describes for SECDED.
        res.correctable = false;
        res.step_error = 0;
    }
    return res;
}

} // namespace rtm
