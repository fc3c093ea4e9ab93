(* Monotonic nanoseconds (CLOCK_MONOTONIC through bechamel's stub):
   [Unix.gettimeofday] moves in 1 us steps, 5% of a 20 us lookup. *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())
