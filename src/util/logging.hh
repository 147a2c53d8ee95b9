/**
 * @file
 * Status/error reporting helpers in the spirit of gem5's logging.hh.
 *
 * panic()  - an internal invariant was violated; aborts.
 * fatal()  - the user asked for something impossible; exits with code 1.
 * warn()   - something is suspicious but simulation can continue.
 * inform() - plain status output.
 */

#ifndef RTM_UTIL_LOGGING_HH
#define RTM_UTIL_LOGGING_HH

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>

namespace rtm
{

/** Verbosity levels for runtime log filtering. */
enum class LogLevel
{
    Quiet = 0,   //!< only panic/fatal
    Warn = 1,    //!< + warnings
    Info = 2,    //!< + inform()
    Debug = 3    //!< + debug trace
};

/** Get the process-wide log level (default: Info). */
LogLevel logLevel();

/** Set the process-wide log level. */
void setLogLevel(LogLevel level);

namespace detail
{

/** Render a printf-style format into a std::string. */
std::string vformat(const char *fmt, va_list ap);

/** Emit one log line with a severity prefix. */
void emit(const char *prefix, const std::string &msg);

[[noreturn]] void panicImpl(const char *file, int line,
                            const char *fmt, ...);
[[noreturn]] void fatalImpl(const char *file, int line,
                            const char *fmt, ...);
void warnImpl(const char *fmt, ...);
void informImpl(const char *fmt, ...);
void debugImpl(const char *fmt, ...);

} // namespace detail

} // namespace rtm

/** Abort: an internal simulator invariant was violated. */
#define rtm_panic(...) \
    ::rtm::detail::panicImpl(__FILE__, __LINE__, __VA_ARGS__)

/** _Exit(1): the requested configuration cannot be honoured. */
#define rtm_fatal(...) \
    ::rtm::detail::fatalImpl(__FILE__, __LINE__, __VA_ARGS__)

/** Non-fatal warning. */
#define rtm_warn(...) ::rtm::detail::warnImpl(__VA_ARGS__)

/** Informational status message. */
#define rtm_inform(...) ::rtm::detail::informImpl(__VA_ARGS__)

/** Debug trace message (only at LogLevel::Debug). */
#define rtm_debug(...) ::rtm::detail::debugImpl(__VA_ARGS__)

#endif // RTM_UTIL_LOGGING_HH
