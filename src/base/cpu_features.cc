#include "cpu_features.hh"

namespace klebsim
{

// __builtin_cpu_supports() takes only a string literal, so each probe
// names its own.

bool
hostHasSse42()
{
#if defined(__x86_64__)
    static const bool sse42 = [] {
        __builtin_cpu_init();
        return __builtin_cpu_supports("sse4.2") != 0;
    }();
    return sse42;
#else
    return false;
#endif
}

bool
hostHasAvx512f()
{
#if defined(__x86_64__)
    static const bool avx512f = [] {
        __builtin_cpu_init();
        return __builtin_cpu_supports("avx512f") != 0;
    }();
    return avx512f;
#else
    return false;
#endif
}

bool
hostHasAvx512dq()
{
#if defined(__x86_64__)
    static const bool avx512dq = [] {
        __builtin_cpu_init();
        return __builtin_cpu_supports("avx512f") != 0 &&
               __builtin_cpu_supports("avx512dq") != 0;
    }();
    return avx512dq;
#else
    return false;
#endif
}

} // namespace klebsim
