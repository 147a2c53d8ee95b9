#include "becc.hh"

#include <cmath>

#include "util/logging.hh"
#include "util/prob.hh"

namespace rtm
{

namespace
{

bool
isPowerOfTwo(int v)
{
    return v > 0 && (v & (v - 1)) == 0;
}

} // anonymous namespace

HammingSecded::HammingSecded()
{
    for (int i = 0; i < 128; ++i)
        pos_to_data_[i] = -1;
    // Data bits occupy codeword positions 1.. skipping the parity
    // positions (powers of two). 64 data bits need positions up to
    // 71 < 2^7, so 7 Hamming parities suffice; the 8th check bit is
    // the overall parity extending to double-error detection.
    int pos = 1;
    for (int bit = 0; bit < 64; ++bit) {
        while (isPowerOfTwo(pos))
            ++pos;
        data_pos_[bit] = pos;
        pos_to_data_[pos] = bit;
        ++pos;
    }
}

uint8_t
HammingSecded::encode(uint64_t data) const
{
    // Hamming parities: parity p (p = 0..6) covers every codeword
    // position with bit p set.
    uint8_t check = 0;
    for (int p = 0; p < 7; ++p) {
        int parity = 0;
        for (int bit = 0; bit < 64; ++bit) {
            if (data_pos_[bit] & (1 << p))
                parity ^= static_cast<int>((data >> bit) & 1);
        }
        check = static_cast<uint8_t>(check | (parity << p));
    }
    // Overall parity over data plus the 7 Hamming bits.
    int overall = __builtin_popcountll(data) & 1;
    overall ^= __builtin_popcount(check & 0x7f) & 1;
    check = static_cast<uint8_t>(check | (overall << 7));
    return check;
}

uint8_t
HammingSecded::syndromeAndParity(uint64_t data, uint8_t check) const
{
    // Syndrome: recomputed Hamming parities vs the stored ones.
    uint8_t expect = encode(data);
    uint8_t syndrome =
        static_cast<uint8_t>((expect ^ check) & 0x7f);
    // Overall parity of the *received* codeword (data + all eight
    // stored check bits); zero for a clean word, one for any odd
    // number of flips. Re-deriving it from the corrupted data (as a
    // plain re-encode would) breaks single/double discrimination.
    int total = __builtin_popcountll(data) & 1;
    total ^= __builtin_popcount(check) & 1;
    return static_cast<uint8_t>(syndrome | (total << 7));
}

bool
HammingSecded::syndromeClean(uint64_t data, uint8_t check) const
{
    return syndromeAndParity(data, check) == 0;
}

BeccDecode
HammingSecded::decode(uint64_t data, uint8_t check) const
{
    BeccDecode out;
    out.data = data;
    uint8_t diff = syndromeAndParity(data, check);
    int syndrome = diff & 0x7f;
    int parity_mismatch = (diff >> 7) & 1;

    if (syndrome == 0 && !parity_mismatch)
        return out; // clean

    if (parity_mismatch) {
        // Odd number of flipped bits: single-error correction.
        out.status = BeccDecode::Status::Corrected;
        if (syndrome == 0)
            return out; // the overall parity bit itself flipped
        if (syndrome < 128 && pos_to_data_[syndrome] >= 0) {
            int bit = pos_to_data_[syndrome];
            out.data = data ^ (1ull << bit);
            out.flipped_bit = bit;
        }
        // Else: a Hamming check bit flipped; data unchanged.
        return out;
    }
    // Even number of flips with non-zero syndrome: double error.
    out.status = BeccDecode::Status::DetectedDouble;
    return out;
}

uint64_t
BeccAnalysis::refreshShiftOps() const
{
    // Reading every domain of a stripe past its port requires
    // (domains - 1) shifts plus the return trip; all stripes move
    // in lockstep, but each stripe's movement is an independent
    // error opportunity.
    uint64_t per_stripe = 2ull *
                          static_cast<uint64_t>(domains_per_stripe);
    return per_stripe * static_cast<uint64_t>(stripes);
}

double
BeccAnalysis::refreshSecondErrorProbability() const
{
    // The paper quotes this for the shifts of one segment pass
    // (Lseg positions) across all the line's stripes: ~0.17.
    double ops = static_cast<double>(stripes) * kSegLen;
    return std::exp(logAnyOf(std::log(p_slip), ops));
}

double
BeccAnalysis::mttfSeconds(double accesses_per_second) const
{
    // Failure path: a position error occurs, b-ECC at best detects
    // it, and the refresh fails with
    // refreshSecondErrorProbability(). The paper's 20 ms anchor
    // implies per-line-shift error accounting here (all stripes of
    // a line shift as one operation whose error rate is the 1-step
    // Table 2 value); the per-stripe multiplicity is instead what
    // drives the refresh-failure probability above.
    double fail_per_access =
        p_slip * refreshSecondErrorProbability();
    if (fail_per_access <= 0.0 || accesses_per_second <= 0.0)
        return std::numeric_limits<double>::infinity();
    return 1.0 / (fail_per_access * accesses_per_second);
}

} // namespace rtm
