#include "layout.hh"

#include <algorithm>

#include "codec/del_ins.hh"
#include "util/logging.hh"

namespace rtm
{

namespace
{

/** Extra domains of `c` evaluated at strength `m`, window `w`. */
int
extraDomainsAtStrength(const PeccConfig &c, int m, int w)
{
    switch (c.variant) {
      case PeccVariant::None:
        return 0;
      case PeccVariant::Standard:
        if (m == 0 && w == 1)
            return c.seg_len + 1;
        return 2 * m + (c.seg_len - 1 + 2 * m) + (w - (m + 1));
      case PeccVariant::OverheadRegion:
        return 4 * (m + 1);
      case PeccVariant::DelIns: {
        DelInsCode code(c.num_segments, c.seg_len, m);
        return c.num_segments * code.checkBitsPerTrack() +
               code.flushReads();
      }
    }
    return 0;
}

/** Non-negative residue of `x` modulo the power-of-two `period`. */
int
phaseMod(int x, int period)
{
    if (period <= 0 || (period & (period - 1)) != 0)
        rtm_panic("code period %d is not a power of two", period);
    return x & (period - 1);
}

} // anonymous namespace

int
PeccConfig::effectiveCorrect() const
{
    int boost = 0;
    for (int f = codeword_frames; f > 1; f >>= 1)
        ++boost;
    return std::min(correct + boost, seg_len - 1);
}

PeccConfig
peccConfigFor(Scheme scheme, int num_segments, int seg_len)
{
    const SchemeRow &row = schemeRow(scheme);
    PeccConfig c;
    c.num_segments = num_segments;
    c.seg_len = seg_len;
    c.variant = row.variant;
    if (row.code != CodeKind::None)
        c.correct = row.radius;
    c.window_ports = row.window;
    return c;
}

std::string
protectionGeometryError(const PeccConfig &config, int frames_per_group)
{
    const std::string m = std::to_string(config.correct);
    const std::string lseg = std::to_string(config.seg_len);
    if (config.num_segments < 1)
        return "stripe needs at least one segment";
    if (config.seg_len < 2)
        return "segment length must be >= 2";
    if (config.correct < 0)
        return "correction strength must be >= 0";
    // The paper states m < Lseg - 1 (Sec. 4.2.3) but its own
    // sensitivity figures include SECDED on Lseg = 2 stripes, where
    // the single possible shift distance is 1 and +/-1 correction
    // still makes sense; we accept m up to Lseg - 1.
    if (config.correct > config.seg_len - 1 &&
        config.variant == PeccVariant::Standard)
        return "p-ECC requires m <= Lseg - 1 (m=" + m + ", Lseg=" +
               lseg + ")";
    if (config.window_ports > 0) {
        if (config.variant == PeccVariant::DelIns)
            return "del-ins stripes have no code window";
        // A period-2^w cyclic code tells the 2m + 1 correctable
        // residues and at least one detect-only residue apart only
        // when 2m + 2 <= 2^w.
        if (2 * config.correct + 2 > (1 << config.window_ports))
            return "window w=" + std::to_string(config.window_ports) +
                   " too narrow to correct +/-" + m + " offsets";
    }
    if (config.variant == PeccVariant::DelIns) {
        if (config.correct < 1)
            return "del-ins protection needs k >= 1";
        if (config.seg_len <= config.correct)
            return "del-ins track of " + lseg +
                   " domains too short for k=" + m;
        if (DelInsCode::checkBits(config.seg_len, config.correct) >=
            config.seg_len)
            return "del-ins code (L=" + lseg + ", k=" + m +
                   ") leaves no data bits";
    }
    const int f = config.codeword_frames;
    if (f < 1 || f > 8 || (f & (f - 1)) != 0)
        return "codeword_frames must be 1, 2, 4 or 8 (got " +
               std::to_string(f) + ")";
    if (frames_per_group > 0) {
        if (f > frames_per_group)
            return "codeword of " + std::to_string(f) +
                   " frames exceeds the group capacity of " +
                   std::to_string(frames_per_group) + " frames";
        if (frames_per_group % f != 0)
            return "codeword of " + std::to_string(f) +
                   " frames does not tile the group (" +
                   std::to_string(frames_per_group) +
                   " frames per group)";
    }
    if (f > 1) {
        if (config.variant == PeccVariant::None)
            return "codeword_frames > 1 needs a protecting code "
                   "(scheme is unprotected)";
        // The pooled redundancy must still fit the stripe tail: a
        // position code can only represent offsets up to Lseg - 1,
        // so the boosted strength may not exceed it.
        int boost = 0;
        for (int g = f; g > 1; g >>= 1)
            ++boost;
        if (config.correct + boost > config.seg_len - 1)
            return "redundancy for " + std::to_string(f) +
                   "-frame codewords does not fit the stripe tail "
                   "(m + log2(F) = " +
                   std::to_string(config.correct + boost) +
                   " exceeds Lseg - 1 = " +
                   std::to_string(config.seg_len - 1) + ")";
    }
    return "";
}

int
PeccLayout::extraDomains() const
{
    // Paper accounting (Sec. 4.2.3 / 4.2.4), used by the area model:
    //  - SED: Lseg + 1 code domains (the paper's 5 for Lseg = 4);
    //  - p-ECC: 2m guards plus a code region of Lseg - 1 + 2m, and
    //    one domain per window port beyond the paper's w = m + 1;
    //  - p-ECC-O: 2(m+1) domains at each end;
    //  - del-ins: the in-track VT check bits plus the flush-read
    //    sentinel domains (there is no dedicated code region).
    return extraDomainsAtStrength(config, config.correct,
                                  config.window());
}

int
PeccLayout::codewordExtraDomains() const
{
    // F frames pooling one codeword share a single redundancy
    // region, sized at the boosted strength m + log2(F) instead of
    // F per-frame regions at strength m — the Ramulator2_ECC
    // sub-linear scaling (Hamming-style: check bits grow with the
    // log of the data they cover).
    const int m_eff = config.effectiveCorrect();
    return extraDomainsAtStrength(config, m_eff,
                                  std::max(config.window(),
                                           m_eff + 1));
}

double
PeccLayout::codewordStorageOverhead() const
{
    return static_cast<double>(codewordExtraDomains()) /
           (static_cast<double>(config.codeword_frames) *
            static_cast<double>(config.dataDomains()));
}

int
PeccLayout::extraReadPorts() const
{
    const auto &c = config;
    switch (c.variant) {
      case PeccVariant::None:
        return 0;
      case PeccVariant::Standard:
        return c.window();
      case PeccVariant::OverheadRegion:
        // "m more read ports than original p-ECC" (Sec. 4.2.4).
        return 2 * c.correct + 1;
      case PeccVariant::DelIns:
        // Decoding reuses the per-segment data ports as the
        // construction's multiple heads; no window ports at all.
        return 0;
    }
    return 0;
}

int
PeccLayout::extraWritePorts() const
{
    return config.variant == PeccVariant::OverheadRegion ? 2 : 0;
}

double
PeccLayout::storageOverhead() const
{
    return static_cast<double>(extraDomains()) /
           static_cast<double>(config.dataDomains());
}

int
PeccLayout::expectedPhase(int offset, int period) const
{
    int base;
    if (config.variant == PeccVariant::Standard) {
        base = window_slots.front() - code_base;
    } else {
        base = window_slots.front();
    }
    return phaseMod(base - offset, period);
}

int
PeccLayout::expectedLeftPhase(int offset, int period) const
{
    int base = left_window_slots.empty() ? 0
                                         : left_window_slots.front();
    return phaseMod(base - offset, period);
}

std::vector<Port>
PeccLayout::buildPorts() const
{
    std::vector<Port> ports;
    for (int slot : data_port_slots)
        ports.push_back({slot, PortKind::ReadWrite});
    for (int slot : window_slots)
        ports.push_back({slot, PortKind::ReadOnly});
    for (int slot : left_window_slots)
        ports.push_back({slot, PortKind::ReadOnly});
    return ports;
}

int
PeccLayout::windowPortIndex(int i) const
{
    if (i < 0 || i >= static_cast<int>(window_slots.size()))
        rtm_panic("window port %d out of range", i);
    return config.num_segments + i;
}

int
PeccLayout::leftWindowPortIndex(int i) const
{
    if (i < 0 || i >= static_cast<int>(left_window_slots.size()))
        rtm_panic("left window port %d out of range", i);
    return config.num_segments +
           static_cast<int>(window_slots.size()) + i;
}

PeccLayout
computeLayout(const PeccConfig &config)
{
    const std::string err = protectionGeometryError(config, 0);
    if (!err.empty())
        rtm_fatal("%s", err.c_str());
    PeccLayout lay;
    lay.config = config;

    const int s = config.num_segments;
    const int lseg = config.seg_len;
    const int m = config.correct;
    const int detect = config.detect();
    const int w = config.window();
    // Largest believed offset, and largest physical excursion once a
    // detectable error of +/-(m+1) is stacked on top of it.
    const int omax = lseg - 1;
    const int omax_err = omax + detect;

    switch (config.variant) {
      case PeccVariant::None: {
        lay.data_base = 0;
        lay.wire_len = s * lseg + omax;
        break;
      }
      case PeccVariant::Standard: {
        // [m guards][data][code region][right excursion room]. The
        // code region must cover the window under the full offset
        // excursion [-m, omax + m]: lseg + 2m domains of travel plus
        // the window itself. With the paper's w = m + 1 this is the
        // familiar lseg + 3m + 2; a wider Chee-style window only
        // grows it by the extra ports.
        lay.data_base = m;
        lay.code_base = lay.data_base + s * lseg;
        lay.code_len = lseg + 2 * m + std::max(w, m + 1) + 1;
        int window_base = lay.code_base + omax_err;
        for (int i = 0; i < w; ++i)
            lay.window_slots.push_back(window_base + i);
        lay.wire_len = lay.code_base + lay.code_len + omax_err;
        break;
      }
      case PeccVariant::OverheadRegion: {
        // Each end: [entry margin][code window m+1][guard]. The
        // margin keeps everything that enters at the wire end -
        // maintenance writes made under a wrong believed offset and
        // the undefined domains an over-shift injects - away from
        // the window slots for the whole duration of a correction
        // episode (up to kMaxCorrectionRounds raw counter-shifts,
        // each of which can itself suffer a +/-(m+1) error). The
        // guard keeps the window off the data region under the same
        // worst-case excursions. Window bits are therefore always
        // evidence written *before* the operation under check.
        //
        // These margins make the functional wire a conservative
        // superset of the paper's 2(m+1)-domains-per-end accounting
        // (extraDomains() reports the paper's number).
        const int m1 = m + 1;
        const int margin = kOverheadScrubDepthFactor * m1;
        const int guard = 4 * m1;
        lay.left_code_len = margin + w + guard;
        lay.data_base = lay.left_code_len;
        for (int i = 0; i < w; ++i)
            lay.left_window_slots.push_back(margin + i);
        int right_window_base =
            lay.data_base + s * lseg + (lseg - 1) + guard;
        for (int i = 0; i < w; ++i)
            lay.window_slots.push_back(right_window_base + i);
        lay.wire_len = right_window_base + w + margin;
        lay.has_end_write_ports = true;
        break;
      }
      case PeccVariant::DelIns: {
        // [left sentinel][data tracks][right excursion room]. The
        // sentinel region stays undefined (X) on purpose: head 0
        // streams into it during the flush reads and the length of
        // the trailing X run it observes reveals the readout's net
        // offset exactly (codec/del_ins.hh). Both margins are sized
        // for the deepest excursion of a full readout (N - 1 reads)
        // plus a worst-case +/-k burst on top.
        DelInsCode code(s, lseg, m);
        const int flush = code.flushReads();
        lay.data_base = flush + 2 * m;
        lay.wire_len =
            lay.data_base + s * lseg + lseg + flush + 2 * m;
        break;
      }
    }

    // Data ports: over the right-most domain of each segment at home.
    for (int seg = 0; seg < s; ++seg) {
        lay.data_port_slots.push_back(lay.data_base + seg * lseg +
                                      (lseg - 1));
    }
    return lay;
}

} // namespace rtm
