/**
 * @file
 * Counting replacements of the global operator new/delete, linked
 * only into the tests that measure allocation-free claims.
 *
 * The replacements live in their own translation unit: inlined into
 * a std::allocator call site, a replaced operator delete's free()
 * would otherwise be paired with the operator new call there and
 * reported as a mismatched deallocation.
 */

#ifndef RTM_TESTS_ALLOC_COUNTER_HH
#define RTM_TESTS_ALLOC_COUNTER_HH

#include <cstdint>

namespace rtm
{

/** Calls of the global operator new (and new[]) so far. */
uint64_t globalAllocationCount();

} // namespace rtm

#endif // RTM_TESTS_ALLOC_COUNTER_HH
