// csp_rendezvous: CSP-style synchronous channels (paper §1: synchronous
// queues "constitute the central synchronization primitive of Hoare's CSP").
//
// A tiny CSP program: a `worker` process and a `coordinator` process
// communicate over two unbuffered channels (request / reply). Closing the
// request channel stops the worker.
#include <cstdio>
#include <string>
#include <thread>

#include "core/channel.hpp"

using namespace ssq;

int main() {
  channel<int> request;
  channel<std::string> reply;

  // worker = request?n -> reply!(n*n) -> worker, until request closes
  std::thread worker([&] {
    while (auto n = request.recv())
      reply.send("square(" + std::to_string(*n) +
                 ") = " + std::to_string(*n * *n));
  });

  // coordinator = request!i -> reply?s -> ...
  for (int i = 1; i <= 5; ++i) {
    request.send(i);                            // rendezvous #1
    std::printf("%s\n", reply.recv()->c_str()); // rendezvous #2
  }
  request.close(); // STOP
  worker.join();

  std::printf("csp demo done\n");
  return 0;
}
