/**
 * @file
 * Peak live host heap of the benchmark process (see heap.cc).
 */

#ifndef PERFBENCH_HEAP_HH
#define PERFBENCH_HEAP_HH

namespace perfbench
{

/** Peak live C++ heap since process start, in MB (10^6 bytes). */
double peakHeapMb();

} // namespace perfbench

#endif // PERFBENCH_HEAP_HH
