/**
 * @file
 * Quickstart: protect one racetrack stripe against position errors.
 *
 * Builds a SECDED-protected stripe behind a position-error-aware
 * shift controller, writes a message into it, then hammers it with
 * an artificially high error rate and shows that every injected
 * error is either corrected transparently or flagged - never silent.
 *
 *   ./quickstart
 */

#include <cstdio>
#include <memory>
#include <string>

#include "control/controller.hh"
#include "device/error_model.hh"

using namespace rtm;

int
main()
{
    std::printf("hifi-racetrack quickstart\n");
    std::printf("-------------------------\n\n");

    // A stripe with four 8-domain segments, SECDED p-ECC, driven by
    // the adaptive position-error-aware controller. The error model
    // is the paper's Table 2 scaled 500x so a short demo actually
    // sees faults.
    auto base = std::make_shared<PaperCalibratedErrorModel>();
    ScaledErrorModel model(base, 500.0);

    PeccConfig config;
    config.num_segments = 4;
    config.seg_len = 8;
    config.correct = 1; // SECDED
    config.variant = PeccVariant::Standard;

    ShiftController controller(config, &model,
                               ShiftPolicy::Adaptive,
                               kPeakLlcOpsPerSecond,
                               Rng(2015));
    controller.initialize();
    std::printf("stripe: %d segments x %d domains, SECDED p-ECC, "
                "%d wire slots\n\n",
                config.num_segments, config.seg_len,
                controller.stripe().layout().wire_len);

    // Write the bits of a short message through the real (faulty)
    // access path: segment s, index i holds bit i of byte s.
    const std::string message = "HIFI";
    Cycles now = 0;
    for (int seg = 0; seg < 4; ++seg) {
        for (int idx = 0; idx < 8; ++idx) {
            bool bit = (message[static_cast<size_t>(seg)] >> idx) & 1;
            controller.write(seg, idx, bit ? Bit::One : Bit::Zero,
                             now);
            now += 500;
        }
    }
    std::printf("wrote \"%s\" through the shift-based write path\n",
                message.c_str());

    // Churn: thousands of random seeks with injected errors.
    Rng dice(7);
    for (int i = 0; i < 5000; ++i) {
        controller.read(static_cast<int>(dice.uniformInt(4)),
                        static_cast<int>(dice.uniformInt(8)), now);
        now += 200 + dice.uniformInt(2000);
    }

    // Read the message back.
    std::string read_back(4, '\0');
    for (int seg = 0; seg < 4; ++seg) {
        char byte = 0;
        for (int idx = 0; idx < 8; ++idx) {
            AccessResult r = controller.read(seg, idx, now);
            now += 500;
            if (r.value == Bit::One)
                byte = static_cast<char>(byte | (1 << idx));
        }
        read_back[static_cast<size_t>(seg)] = byte;
    }

    const ControllerStats &s = controller.stats();
    std::printf("read back \"%s\" after %llu shift operations\n\n",
                read_back.c_str(),
                static_cast<unsigned long long>(s.shift_ops));
    std::printf("position errors injected and detected: %llu\n",
                static_cast<unsigned long long>(s.detected_errors));
    std::printf("  corrected transparently: %llu\n",
                static_cast<unsigned long long>(s.corrected_errors));
    std::printf("  unrecoverable (flagged):  %llu\n",
                static_cast<unsigned long long>(s.unrecoverable));
    std::printf("  silent corruptions:       %llu  <- the number "
                "that matters\n",
                static_cast<unsigned long long>(s.silent_errors));
    std::printf("\nbusy cycles spent shifting: %llu (%.1f per "
                "access)\n",
                static_cast<unsigned long long>(s.busy_cycles),
                static_cast<double>(s.busy_cycles) /
                    static_cast<double>(s.accesses));
    return read_back == message && s.silent_errors == 0 ? 0 : 1;
}
