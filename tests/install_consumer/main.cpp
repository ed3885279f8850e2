// One put/take through an installed ssq; exits 0 when the value arrives.
#include <thread>

#include "ssq.hpp"

int main() {
  ssq::synchronous_queue<int> q;
  std::thread producer([&q] { q.put(42); });
  int got = q.take();
  producer.join();
  return got == 42 ? 0 : 1;
}
