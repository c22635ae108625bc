(* Every span and metric is timed with CLOCK_MONOTONIC in nanoseconds:
   a microsecond wall clock quantises 1-2 us engine calls. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let seconds ns = float_of_int ns *. 1e-9
let since t0 = seconds (now_ns () - t0)
