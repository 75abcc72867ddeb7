#include "signal/fft.h"

#include "signal/fft_plan.h"

namespace triad::signal {
namespace {

std::vector<Complex> Transform(const std::vector<Complex>& input, int sign) {
  if (input.empty()) return {};
  std::vector<Complex> data = input;
  const std::shared_ptr<const FftPlan> plan = GetFftPlan(input.size());
  if (sign < 0) {
    plan->Forward(&data);
  } else {
    plan->InverseUnnormalized(&data);
  }
  return data;
}

}  // namespace

size_t NextPowerOfTwo(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

std::vector<Complex> Fft(const std::vector<Complex>& input) {
  return Transform(input, -1);
}

std::vector<Complex> InverseFft(const std::vector<Complex>& input) {
  std::vector<Complex> out = Transform(input, +1);
  const double inv = 1.0 / static_cast<double>(out.size());
  for (auto& x : out) x *= inv;
  return out;
}

std::vector<Complex> RealFft(const std::vector<double>& input) {
  std::vector<Complex> data(input.size());
  for (size_t i = 0; i < input.size(); ++i) data[i] = Complex(input[i], 0.0);
  return Fft(data);
}

}  // namespace triad::signal
