(* Nearest-rank percentiles over a sample array (sorted in place). *)

let sort a = Array.sort compare a

(* [percentile a q] with [a] sorted ascending: the smallest sample with
   at least [q] of the samples at or below it. *)
let percentile a q =
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.percentile: no samples";
  let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
  a.(max 0 (min (n - 1) (rank - 1)))

let median_float l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.median_float: no samples";
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Growable int buffer: latency samples are appended in the timed
   window, so appending must not allocate per sample. *)
module Buf = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 1024 0; n = 0 }

  let add t v =
    if t.n = Array.length t.a then begin
      let a = Array.make (2 * t.n) 0 in
      Array.blit t.a 0 a 0 t.n;
      t.a <- a
    end;
    t.a.(t.n) <- v;
    t.n <- t.n + 1

  let length t = t.n

  let sorted t =
    let a = Array.sub t.a 0 t.n in
    sort a;
    a

  (* The samples, in the order taken, cut into consecutive blocks of at
     least [block]; the [q]-th percentile of each block. *)
  let blocks t ~block q =
    let k = max 1 (t.n / block) in
    let size = t.n / k in
    List.init k (fun i ->
        let len = if i = k - 1 then t.n - (i * size) else size in
        let a = Array.sub t.a (i * size) len in
        sort a;
        float_of_int (percentile a q))

  (* [tail t ~block q]: the median of the blocks' [q]-th percentiles. A
     burst of interference from outside moves one block's tail, not the
     median of the blocks. *)
  let tail t ~block q = median_float (blocks t ~block q)

  (* [center t ~block q]: the mean of the blocks' [q]-th percentiles.
     A small shared host can switch between a fast and a slow state
     every few seconds; the p50 of a whole run then flips between the
     two modes as the share of time spent fast crosses one half, while
     the mean of short blocks' p50s moves in proportion to that share. *)
  let center t ~block q =
    let l = blocks t ~block q in
    List.fold_left ( +. ) 0. l /. float_of_int (List.length l)
end

(* A growable int log outside the OCaml heap. Answers kept during a
   timed window are copied here so the lists the program returned die
   young, instead of being promoted and making the measured process's
   major GC pay for the benchmark's bookkeeping. *)
module Log = struct
  open Bigarray

  type t = { mutable a : (int, int_elt, c_layout) Array1.t; mutable n : int }

  let create () = { a = Array1.create int c_layout 65536; n = 0 }
  let clear t = t.n <- 0
  let length t = t.n
  let get t i = t.a.{i}

  let add t v =
    if t.n = Array1.dim t.a then begin
      let a = Array1.create int c_layout (2 * t.n) in
      Array1.blit t.a (Array1.sub a 0 t.n);
      t.a <- a
    end;
    t.a.{t.n} <- v;
    t.n <- t.n + 1
end
