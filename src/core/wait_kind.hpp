// Waiting disciplines shared by the dual transfer structures.
#pragma once

namespace ssq {

enum class wait_kind {
  now,   // succeed only if a counterpart is already waiting (poll / offer)
  timed, // wait up to a deadline ("patience"), then cancel
  sync,  // wait indefinitely for a counterpart (put / take)
  async, // producers only: enqueue and return immediately -- the
         // TransferQueue extension of paper §5 ("differ only by releasing
         // producers before items are taken"). Only the fair linked queue
         // (transfer_queue, under linked_transfer_queue) implements it.
};

} // namespace ssq
