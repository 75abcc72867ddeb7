#ifndef TRIAD_SIGNAL_FFT_H_
#define TRIAD_SIGNAL_FFT_H_

#include <complex>
#include <vector>

namespace triad::signal {

using Complex = std::complex<double>;

/// \brief Discrete Fourier transform of arbitrary length.
///
/// Power-of-two inputs use an iterative radix-2 Cooley-Tukey; other lengths
/// use Bluestein's chirp-z algorithm (exact DFT, O(N log N)).
std::vector<Complex> Fft(const std::vector<Complex>& input);

/// Inverse DFT (normalized by 1/N).
std::vector<Complex> InverseFft(const std::vector<Complex>& input);

/// DFT of a real sequence; returns all N bins (conjugate-symmetric).
std::vector<Complex> RealFft(const std::vector<double>& input);

/// Smallest power of two >= n (n >= 1).
size_t NextPowerOfTwo(size_t n);

}  // namespace triad::signal

#endif  // TRIAD_SIGNAL_FFT_H_
