#include "del_ins.hh"

#include <algorithm>

#include "util/logging.hh"

namespace rtm
{

DelInsCode::DelInsCode(int tracks, int track_len, int k)
    : tracks_(tracks), len_(track_len), k_(k)
{
    if (tracks_ < 1)
        rtm_fatal("del-ins code needs >= 1 track, got %d", tracks_);
    if (k_ < 1)
        rtm_fatal("del-ins code needs k >= 1, got %d", k_);
    if (len_ <= k_)
        rtm_fatal("track of %d domains too short for k=%d", len_, k_);

    // Interleave class c holds the positions congruent to c mod k; a
    // burst of <= k consecutive deletions/insertions touches each
    // class at most once, so one VT code per class suffices.
    classes_.resize(k_);
    is_check_.assign(len_, 0);
    for (int c = 0; c < k_; ++c) {
        ClassInfo &info = classes_[c];
        info.length = (len_ - 1 - c) / k_ + 1;
        // Smallest r with 2^r - 1 >= Lc: the check bits at class-local
        // indices 2^j - 1 have VT weight 2^j, so they can write any
        // syndrome deficit in [0, Lc] directly.
        int r = 0;
        while ((1 << r) - 1 < info.length)
            ++r;
        for (int j = 0; j < r; ++j) {
            int local = (1 << j) - 1;
            info.check_local.push_back(local);
            is_check_[c + local * k_] = 1;
        }
        checks_per_track_ += r;
    }
    if (dataBitsPerTrack() < 1)
        rtm_fatal("del-ins code (L=%d, k=%d) leaves no data bits",
                  len_, k_);
}

bool
DelInsCode::isCheckPosition(int pos) const
{
    return is_check_[pos] != 0;
}

std::vector<Bit>
DelInsCode::encodeTrack(const std::vector<Bit> &data) const
{
    if (static_cast<int>(data.size()) != dataBitsPerTrack())
        rtm_fatal("del-ins encode expects %d data bits, got %zu",
                  dataBitsPerTrack(), data.size());
    std::vector<Bit> track(len_, Bit::Zero);
    int next = 0;
    for (int p = 0; p < len_; ++p) {
        if (is_check_[p])
            continue;
        if (data[next] == Bit::X)
            rtm_fatal("cannot encode an undefined data bit");
        track[p] = data[next++];
    }
    for (int c = 0; c < k_; ++c) {
        const ClassInfo &info = classes_[c];
        const int mod = info.length + 1;
        int syndrome = 0;
        for (int local = 0; local < info.length; ++local)
            if (track[c + local * k_] == Bit::One)
                syndrome = (syndrome + local + 1) % mod;
        // Deficit D makes the class syndrome 0 mod Lc+1; its binary
        // digits land on the weight-2^j check bits.
        int deficit = (mod - syndrome) % mod;
        for (size_t j = 0; j < info.check_local.size(); ++j)
            if (deficit & (1 << j))
                track[c + info.check_local[j] * k_] = Bit::One;
    }
    return track;
}

std::vector<std::vector<Bit>>
DelInsCode::encode(const std::vector<Bit> &payload) const
{
    if (static_cast<int>(payload.size()) != payloadBits())
        rtm_fatal("del-ins encode expects %d payload bits, got %zu",
                  payloadBits(), payload.size());
    std::vector<std::vector<Bit>> out;
    out.reserve(tracks_);
    const int per = dataBitsPerTrack();
    for (int s = 0; s < tracks_; ++s)
        out.push_back(encodeTrack({payload.begin() + s * per,
                                   payload.begin() + (s + 1) * per}));
    return out;
}

void
DelInsCode::appendTrackData(const std::vector<Bit> &track,
                            std::vector<Bit> *out) const
{
    if (static_cast<int>(track.size()) != len_)
        rtm_fatal("del-ins track must be %d bits, got %zu", len_,
                  track.size());
    for (int p = 0; p < len_; ++p)
        if (!is_check_[p])
            out->push_back(track[p]);
}

std::vector<Bit>
DelInsCode::extractTrackData(const std::vector<Bit> &track) const
{
    std::vector<Bit> data;
    data.reserve(dataBitsPerTrack());
    appendTrackData(track, &data);
    return data;
}

std::vector<Bit>
DelInsCode::extractPayload(
    const std::vector<std::vector<Bit>> &tracks) const
{
    std::vector<Bit> payload;
    extractPayload(tracks, &payload);
    return payload;
}

void
DelInsCode::extractPayload(const std::vector<std::vector<Bit>> &tracks,
                           std::vector<Bit> *out) const
{
    out->clear();
    out->reserve(payloadBits());
    for (const auto &track : tracks)
        appendTrackData(track, out);
}

bool
DelInsCode::trackSyndromesOk(const std::vector<Bit> &track) const
{
    for (int c = 0; c < k_; ++c) {
        const ClassInfo &info = classes_[c];
        const int mod = info.length + 1;
        int syndrome = 0;
        for (int local = 0; local < info.length; ++local) {
            Bit b = track[c + local * k_];
            if (b == Bit::X)
                return false;
            if (b == Bit::One)
                syndrome = (syndrome + local + 1) % mod;
        }
        if (syndrome != 0)
            return false;
    }
    return true;
}

Bit
DelInsCode::predictedRead(
    const std::vector<std::vector<Bit>> &tracks, int head,
    int offset) const
{
    // Head `head` sits over the last domain of its track; at tape
    // offset o it sees the concatenated-track position G. Beyond the
    // concatenation (left sentinel region, right excursion room) the
    // wire holds undefined domains by construction.
    const int g = head * len_ + (len_ - 1) - offset;
    if (g < 0 || g >= tracks_ * len_)
        return Bit::X;
    return tracks[g / len_][g % len_];
}

std::vector<std::vector<Bit>>
DelInsCode::referenceStreams(
    const std::vector<std::vector<Bit>> &tracks, int burst_time,
    int error) const
{
    const int n = readoutReads();
    std::vector<std::vector<Bit>> streams(
        tracks_, std::vector<Bit>(n, Bit::X));
    for (int s = 0; s < tracks_; ++s)
        for (int t = 0; t < n; ++t) {
            const int o = t + (t >= burst_time ? error : 0);
            streams[s][t] = predictedRead(tracks, s, o);
        }
    return streams;
}

bool
DelInsCode::tryCandidate(
    const std::vector<std::vector<Bit>> &streams, int burst_time,
    int delta, std::vector<std::vector<Bit>> *out) const
{
    const int n = readoutReads();

    // Assignment pass: map every read back to the concatenated-track
    // position it would have sampled under this (burst_time, delta)
    // hypothesis. Re-read positions must agree; reads that land
    // outside the tracks must have seen an undefined domain, and data
    // positions must never read as undefined.
    std::vector<std::vector<Bit>> &recon = *out;
    recon.resize(tracks_);
    for (auto &track : recon)
        track.assign(len_, Bit::X);
    for (int s = 0; s < tracks_; ++s)
        for (int t = 0; t < n; ++t) {
            const int o = t + (t >= burst_time ? delta : 0);
            const int g = s * len_ + (len_ - 1) - o;
            const Bit b = streams[s][t];
            if (g < 0 || g >= tracks_ * len_) {
                if (b != Bit::X)
                    return false;
                continue;
            }
            if (b != Bit::Zero && b != Bit::One)
                return false;
            Bit &slot = recon[g / len_][g % len_];
            if (slot == Bit::X)
                slot = b;
            else if (slot != b)
                return false;
        }

    // Syndrome pass: a deletion burst of |delta| <= k skipped at most
    // one position per interleave class, so any class with a single
    // unread position is solved exactly by its VT syndrome; more than
    // one unknown in a class is beyond this candidate.
    for (int s = 0; s < tracks_; ++s) {
        for (int c = 0; c < k_; ++c) {
            const ClassInfo &info = classes_[c];
            const int mod = info.length + 1;
            int syndrome = 0;
            int unknown_local = -1;
            for (int local = 0; local < info.length; ++local) {
                Bit b = recon[s][c + local * k_];
                if (b == Bit::X) {
                    if (unknown_local >= 0)
                        return false;
                    unknown_local = local;
                } else if (b == Bit::One) {
                    syndrome = (syndrome + local + 1) % mod;
                }
            }
            if (unknown_local < 0) {
                if (syndrome != 0)
                    return false;
                continue;
            }
            const bool fits_zero = syndrome == 0;
            const bool fits_one =
                (syndrome + unknown_local + 1) % mod == 0;
            if (fits_zero == fits_one)
                return false; // weight != 0 mod Lc+1: exactly one fits
            recon[s][c + unknown_local * k_] =
                fits_one ? Bit::One : Bit::Zero;
        }
    }

    // Verification pass: the reconstruction must re-predict the
    // observed streams bit for bit under the same hypothesis (the
    // referenceStreams comparison, read for read). This is what
    // rules out silent acceptance of a wrong candidate.
    for (int s = 0; s < tracks_; ++s)
        for (int t = 0; t < n; ++t) {
            const int o = t + (t >= burst_time ? delta : 0);
            if (predictedRead(recon, s, o) != streams[s][t])
                return false;
        }
    return true;
}

DelInsCode::Result
DelInsCode::decode(
    const std::vector<std::vector<Bit>> &streams) const
{
    Result res;
    std::vector<std::vector<Bit>> scratch;
    decode(streams, &res, &scratch);
    if (!res.status.ok() && !res.status.correctable)
        res.tracks.clear();
    return res;
}

void
DelInsCode::decode(const std::vector<std::vector<Bit>> &streams,
                   Result *res,
                   std::vector<std::vector<Bit>> *scratch) const
{
    res->status = DecodeResult{};
    res->status.detected = true; // until proven decodable
    const int n = readoutReads();
    if (static_cast<int>(streams.size()) != tracks_)
        return;
    for (const auto &stream : streams)
        if (static_cast<int>(stream.size()) != n)
            return;
    res->status.valid = true;

    // The net offset is read off the trailing undefined run of head
    // 0: its track is exhausted after L - delta reads, so the run has
    // length E + delta.
    int trailing = 0;
    while (trailing < n &&
           streams[0][n - 1 - trailing] == Bit::X)
        ++trailing;
    const int delta = trailing - flushReads();
    if (delta < -k_ || delta > k_)
        return; // beyond the claimed radius: uncorrectable

    // Enumerate when the burst could have struck. The first
    // surviving reconstruction lands in res->tracks, later ones in
    // the scratch buffer; a distinct second one means ambiguity,
    // reported as uncorrectable rather than resolved by guessing.
    bool found = false;
    const int last_time = delta == 0 ? 0 : n - 1;
    for (int burst_time = 0; burst_time <= last_time; ++burst_time) {
        if (!tryCandidate(streams, burst_time, delta,
                          found ? scratch : &res->tracks))
            continue;
        if (!found)
            found = true;
        else if (*scratch != res->tracks)
            return;
    }
    if (!found)
        return;

    res->status.step_error = delta;
    if (delta == 0) {
        res->status.detected = false;
    } else {
        res->status.detected = true;
        res->status.correctable = true;
    }
}

} // namespace rtm
