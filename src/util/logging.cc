#include "logging.hh"

#include <atomic>
#include <cstdarg>

namespace rtm
{

namespace
{

std::atomic<LogLevel> g_level{LogLevel::Info};

} // anonymous namespace

LogLevel
logLevel()
{
    return g_level.load(std::memory_order_relaxed);
}

void
setLogLevel(LogLevel level)
{
    g_level.store(level, std::memory_order_relaxed);
}

namespace detail
{

std::string
vformat(const char *fmt, va_list ap)
{
    va_list ap_copy;
    va_copy(ap_copy, ap);
    int needed = std::vsnprintf(nullptr, 0, fmt, ap_copy);
    va_end(ap_copy);
    if (needed < 0)
        return std::string(fmt);
    std::string out(static_cast<size_t>(needed), '\0');
    std::vsnprintf(out.data(), out.size() + 1, fmt, ap);
    return out;
}

void
emit(const char *prefix, const std::string &msg)
{
    std::fprintf(stderr, "%s: %s\n", prefix, msg.c_str());
}

void
panicImpl(const char *file, int line, const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::string msg = vformat(fmt, ap);
    va_end(ap);
    std::fprintf(stderr, "panic: %s @ %s:%d\n", msg.c_str(), file, line);
    std::abort();
}

void
fatalImpl(const char *file, int line, const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::string msg = vformat(fmt, ap);
    va_end(ap);
    std::fprintf(stderr, "fatal: %s @ %s:%d\n", msg.c_str(), file, line);
    // Not exit(): on a pool worker the global pool's destructor joins it.
    std::fflush(nullptr);
    std::_Exit(1);
}

void
warnImpl(const char *fmt, ...)
{
    if (logLevel() < LogLevel::Warn)
        return;
    va_list ap;
    va_start(ap, fmt);
    emit("warn", vformat(fmt, ap));
    va_end(ap);
}

void
informImpl(const char *fmt, ...)
{
    if (logLevel() < LogLevel::Info)
        return;
    va_list ap;
    va_start(ap, fmt);
    emit("info", vformat(fmt, ap));
    va_end(ap);
}

void
debugImpl(const char *fmt, ...)
{
    if (logLevel() < LogLevel::Debug)
        return;
    va_list ap;
    va_start(ap, fmt);
    emit("debug", vformat(fmt, ap));
    va_end(ap);
}

} // namespace detail

} // namespace rtm
