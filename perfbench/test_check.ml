(* The checker must catch faults: three bad replies — a pair dropped,
   an id changed, an [err] — each count as one failed operation, while
   the true replies count none. The percentile function must report a
   known p50/p99. *)

open Perfbench

let model () =
  let m = Model.create () in
  List.iter
    (fun (x, y, id) -> Model.insert m ~x ~y ~id)
    [ (10, 900, 0); (20, 100, 1); (30, 800, 2); (40, 700, 3) ];
  m

let ops : Gen.op array =
  [|
    Krange { lo = 10; hi = 30 };
    Q3 { xl = 10; xr = 40; yb = 750 };
    Delete 3;
    Lookup 20;
  |]

let run replies =
  let t = Check.tally () in
  Array.iteri (fun i op -> Check.server_reply (model ()) t op replies.(i)) ops;
  t

let () =
  let good = [| "ok pairs 10:900,20:100,30:800"; "ok ids 0,2"; "ok true"; "ok pairs 20:100" |] in
  let t = run good in
  assert (t.attempted = 4 && t.failed = 0);
  let bad =
    [| "ok pairs 10:900,30:800"; "ok ids 0,3"; "ok true"; "err internal boom" |]
  in
  let t = run bad in
  assert (t.attempted = 4);
  assert (t.failed = 3);
  (* a delete of an absent id must say false *)
  let t = Check.tally () in
  Check.server_reply (model ()) t (Delete 99) "ok true";
  assert (t.failed = 1);
  let a = Array.init 1000 (fun i -> 1000 - i) in
  Stats.sort a;
  assert (Stats.percentile a 0.50 = 500);
  assert (Stats.percentile a 0.99 = 990);
  assert (Stats.percentile a 0.999 = 999);
  assert (Stats.percentile [| 7 |] 0.99 = 7);
  (* block tails: one burst in four blocks leaves the median alone *)
  let b = Stats.Buf.create () in
  for i = 0 to 3999 do
    Stats.Buf.add b (if i >= 1000 && i < 1050 then 1_000_000 else (i mod 1000) + 1)
  done;
  assert (Stats.Buf.tail b ~block:1000 0.99 = 990.);
  (* block centers: a slow half moves the reported p50 halfway *)
  let b = Stats.Buf.create () in
  for i = 0 to 399 do
    Stats.Buf.add b (if i < 200 then 10 else 20)
  done;
  assert (Stats.Buf.center b ~block:100 0.5 = 15.);
  assert (Check.stats_size "ok version=3 checkpoints=1 size=42 breaker=none" = Some 42);
  print_endline "perfbench checker: ok"
