/**
 * @file
 * The instruction-set extensions of the host CPU that code paths
 * dispatch on.  Each check is made once per process; every probe of
 * the program lives here, so that one file decides which ISA paths
 * may run.
 */

#ifndef KLEBSIM_BASE_CPU_FEATURES_HH
#define KLEBSIM_BASE_CPU_FEATURES_HH

namespace klebsim
{

/** SSE4.2, so kleb::crc32c() may use the crc32 instruction. */
bool hostHasSse42();

/**
 * AVX-512F, so hw::Cache::accessLaneAvx512() and probeLaneAvx512()
 * may run.
 */
bool hostHasAvx512f();

/**
 * AVX-512F and AVX-512DQ, so Random::Lanes and the address streams'
 * lane bodies may run.
 */
bool hostHasAvx512dq();

} // namespace klebsim

#endif // KLEBSIM_BASE_CPU_FEATURES_HH
