(* Spans recorded by the benchmark around its calls into each layer,
   kept in memory and written out once as Chrome trace_event JSON
   (chrome://tracing, Perfetto). Spans of one request share [req]. *)

type span = { name : string; ts_ns : int; dur_ns : int; req : int }

let spans : span list ref = ref []
let count = ref 0

(* Memory bound: a traced run keeps at most this many spans. *)
let cap = 400_000

let with_span name ~req f =
  let t0 = Perfbench.Clock.now_ns () in
  let r = f () in
  let t1 = Perfbench.Clock.now_ns () in
  if !count < cap then begin
    spans := { name; ts_ns = t0; dur_ns = t1 - t0; req } :: !spans;
    incr count
  end;
  r

(* The layer is the span name up to its first dot. *)
let category name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

let write_chrome path =
  let oc = open_out path in
  output_string oc "{\"traceEvents\":[\n";
  let t0 = List.fold_left (fun m s -> min m s.ts_ns) max_int !spans in
  List.iteri
    (fun i s ->
      if i > 0 then output_string oc ",\n";
      Printf.fprintf oc
        "{\"name\":%S,\"cat\":%S,\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1,\"args\":{\"req\":%d}}"
        s.name (category s.name)
        (float_of_int (s.ts_ns - t0) /. 1e3)
        (float_of_int s.dur_ns /. 1e3)
        s.req)
    (List.rev !spans);
  output_string oc "\n],\"displayTimeUnit\":\"ns\"}\n";
  close_out oc
