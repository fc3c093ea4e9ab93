(* The end-to-end benchmark. See README.md for the workloads, metrics
   and how to run it.

     pcbench --server EXE --workload scan|churn|disk --seed N
             --seconds S --trace 0|1

   The last line of stdout is one JSON object: correct, attempted,
   failed and the metrics (end-to-end with --trace 0, per-layer with
   --trace 1). Human-readable tables go to stderr. *)

open Perfbench
module Point = Pc_util.Point
module Btree = Pc_btree.Btree
module Ext_pst3 = Pc_threesided.Ext_pst3
module Pager = Pc_pagestore.Pager
module Io_stats = Pc_pagestore.Io_stats
module Query_stats = Pc_pagestore.Query_stats
module Shared_store = Pc_conc.Shared_store
module Block_device = Pc_blockdev.Block_device
module File_dev = Pc_blockdev.File_dev
module Obs = Pc_obs.Obs

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

(* Server workloads: 16 384 uniform points preloaded by [insert]. *)
let server_n = 16384

let scan_shape =
  Gen.
    {
      n = server_n;
      krange_pairs = 256;
      q3_ids = 256;
      round = [ (Krange_k, 256); (Q3_k, 256); (Lookup_k, 256) ];
    }

(* 50% writes (fresh inserts and live deletes in equal shares, so the
   size stays at n) and 50% reads of medium width. A round holds 1 024
   writes: two checkpoint rebuilds at the default checkpoint_every. *)
let churn_shape =
  Gen.
    {
      n = server_n;
      krange_pairs = 64;
      q3_ids = 64;
      round =
        [
          (Insert_k, 512);
          (Delete_k, 512);
          (Krange_k, 384);
          (Q3_k, 384);
          (Lookup_k, 256);
        ];
    }

(* In-process file-backed structures: pools far smaller than the
   structures, so queries go through eviction, pread, decode and CRC. *)
let disk_n = 8192
let disk_b = 16
let disk_pool_pages = 32

let disk_shape =
  Gen.
    {
      n = disk_n;
      krange_pairs = 256;
      q3_ids = 256;
      round = [ (Krange_k, 192); (Q3_k, 192); (Lookup_k, 192); (Cycle_k, 384) ];
    }

(* A run is [legs] legs. Each leg sets up afresh (spawns and preloads a
   server, or builds the files) and then runs its share of the stream
   from the seed's first round. The set-ups, whose median is [setup_s],
   and the preload writes [scan] reports are so spread over the run
   rather than bunched at its start, where a few seconds of a slow phase
   of the host would move them all. *)
let legs = 3

(* Reconnect before the server's 5 s idle timeout could drop a session
   left silent while a round is checked. *)
let max_silence_ns = 3_000_000_000

(* ------------------------------------------------------------------ *)
(* Measurements                                                        *)
(* ------------------------------------------------------------------ *)

let verb_bufs () = Array.map (fun _ -> Stats.Buf.create ()) Gen.verbs

let sorted_entries (pts : (int * int * int) array) =
  Array.to_list pts |> List.map (fun (x, y, _) -> (x, y)) |> List.sort compare

let points_of (pts : (int * int * int) array) =
  Array.to_list pts |> List.map (fun (x, y, id) -> Point.make ~x ~y ~id)

type measured = {
  mutable setup_s : float;
  lat : Stats.Buf.t array;  (** ns per operation, by [Gen.verb_index] *)
  mutable ops : int;
  mutable window_ns : int;  (** time inside rounds, checks excluded *)
  mutable rss_mib : float;
  mutable bytes_per_point : float;
  tally : Check.tally;
  mutable run_ok : bool;  (** every server exited 0 after [shutdown] *)
}

let new_measured () =
  {
    setup_s = 0.;
    lat = verb_bufs ();
    ops = 0;
    window_ns = 0;
    rss_mib = 0.;
    bytes_per_point = 0.;
    tally = Check.tally ();
    run_ok = true;
  }

let us ns = float_of_int ns /. 1e3
let lat_buf m v = m.lat.(Gen.verb_index v)

(* Every verb a workload times needs 1 000 samples for its p99, and
   writes 10 000 for their p999; the last leg goes on, in whole rounds,
   until they have them. *)
let enough m =
  Array.for_all
    (fun v ->
      let n = Stats.Buf.length (lat_buf m v) in
      n = 0 || n >= (if v = Gen.Write_v then 10_000 else 1_000))
    Gen.verbs

let insert_ops (g : Gen.t) =
  Array.map (fun (x, y, id) -> Gen.Insert { x; y; id }) g.preload

(* Leg [leg] measures until the run's measured time reaches its share. *)
let leg_done m ~seconds ~leg =
  m.window_ns >= leg * seconds * 1_000_000_000 / legs && (leg < legs || enough m)

(* ------------------------------------------------------------------ *)
(* scan / churn: a live server over the wire                           *)
(* ------------------------------------------------------------------ *)

let open_store c =
  let r = Serverproc.request c "open bench" in
  if String.length r < 9 || String.sub r 0 9 <> "ok opened" then
    failwith ("open: " ^ r)

(* Spawn, wait for [ping], preload by [insert]: the set-up a user pays.
   Each insert reply is checked and its latency kept in [writes]. *)
let server_setup ~exe ~(preload : string array) ~writes tally =
  let t0 = Clock.now_ns () in
  let srv = Serverproc.spawn exe in
  try
    let c = Serverproc.ready srv in
    open_store c;
    Array.iter
      (fun req ->
        let a = Clock.now_ns () in
        let r = Serverproc.request c req in
        Stats.Buf.add writes (Clock.now_ns () - a);
        tally.Check.attempted <- tally.Check.attempted + 1;
        if r <> "ok" then Check.fail tally ("preload insert: " ^ r))
      preload;
    (srv, c, float_of_int (Clock.now_ns () - t0) /. 1e9)
  with e ->
    Serverproc.kill srv;
    raise e

(* One round over the wire: requests built before the window opens;
   the window keeps each reply and its latency; the check follows. *)
let wire_round ~srv ~conn m model buf (ops : Gen.op array) =
  let reqs = Array.map Gen.request ops in
  let ends = Array.make (Array.length ops) 0 in
  Buffer.clear buf;
  if Clock.now_ns () - !conn.Serverproc.last_ns > max_silence_ns then begin
    Serverproc.disconnect !conn;
    conn := Serverproc.connect srv;
    open_store !conn
  end;
  let c = !conn in
  let w0 = Clock.now_ns () in
  Array.iteri
    (fun i req ->
      let a = Clock.now_ns () in
      Buffer.add_string buf (Serverproc.request c req);
      Stats.Buf.add (lat_buf m (Gen.verb ops.(i))) (Clock.now_ns () - a);
      ends.(i) <- Buffer.length buf)
    reqs;
  m.window_ns <- m.window_ns + (Clock.now_ns () - w0);
  m.ops <- m.ops + Array.length ops;
  let replies =
    Array.mapi
      (fun i e ->
        let s = if i = 0 then 0 else ends.(i - 1) in
        Buffer.sub buf s (e - s))
      ends
  in
  Array.iteri (fun i op -> Check.server_reply model m.tally op replies.(i)) ops;
  replies

let answer_points = function
  | Gen.Krange _ | Lookup _ -> (
      fun r -> match Check.parse_pairs r with Some l -> List.length l | None -> 0)
  | Q3 _ -> (
      fun r -> match Check.parse_ids r with Some l -> List.length l | None -> 0)
  | Insert _ | Delete _ -> fun _ -> 0

let run_server ~exe ~seconds ~writes_from_setup shape ~seed =
  let m = new_measured () in
  let setup_writes = Stats.Buf.create () in
  let setup_times = ref [] and rss = ref [] in
  let buf = Buffer.create (1 lsl 22) in
  for leg = 1 to legs do
    let g = Gen.create ~seed shape in
    let preload = Array.map Gen.request (insert_ops g) in
    let srv, c, s = server_setup ~exe ~preload ~writes:setup_writes m.tally in
    setup_times := s :: !setup_times;
    let conn = ref c in
    try
      let model = Model.create () in
      Array.iter (fun (x, y, id) -> Model.insert model ~x ~y ~id) g.preload;
      while not (leg_done m ~seconds ~leg) do
        let ops = Gen.round g in
        let first = m.ops = 0 in
        let replies = wire_round ~srv ~conn m model buf ops in
        if first then begin
          (* wire bytes per point answered, over the seed's first round *)
          let bytes = ref 0 and points = ref 0 in
          Array.iteri
            (fun i op ->
              let pts = answer_points op replies.(i) in
              if pts > 0 then begin
                bytes := !bytes + String.length replies.(i);
                points := !points + pts
              end)
            ops;
          m.bytes_per_point <- float_of_int !bytes /. float_of_int !points
        end
      done;
      (* the final size must equal the model's *)
      m.tally.attempted <- m.tally.attempted + 1;
      let st = Serverproc.request !conn "stats" in
      if Check.stats_size st <> Some (Model.size model) then
        Check.fail m.tally ("stats: " ^ st);
      rss := (float_of_int (Serverproc.vm_hwm_kib srv.pid) /. 1024.) :: !rss;
      if not (Serverproc.shutdown srv !conn) then m.run_ok <- false
    with e ->
      Serverproc.kill srv;
      raise e
  done;
  m.setup_s <- Stats.median_float !setup_times;
  m.rss_mib <- Stats.median_float !rss;
  if writes_from_setup then m.lat.(Gen.verb_index Write_v) <- setup_writes;
  m

(* ------------------------------------------------------------------ *)
(* disk: file-backed structures in-process                             *)
(* ------------------------------------------------------------------ *)

let tmp_root = ".bench_tmp"

let rec rm_rf path =
  match (Unix.lstat path).st_kind with
  | S_DIR ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (ENOENT, _, _) -> ()

(* Remove a run's directory, and the shared root once it is empty. *)
let rm_tmp dir =
  rm_rf dir;
  try Unix.rmdir tmp_root with Unix.Unix_error _ -> ()

let mkdir_p path =
  let rec go p =
    if not (Sys.file_exists p) then begin
      go (Filename.dirname p);
      Unix.mkdir p 0o755
    end
  in
  go path

let file_bytes path = (Unix.stat path).st_size

(* The two structures on their own files, no journal: a write is one
   encode + pwrite per page, so write latency is not fsync-bound. *)
type disk = {
  bt : Btree.t;
  pst : Ext_pst3.t;
  bt_dev : Block_device.t;
  pst_dev : Block_device.t;
  bt_path : string;
  pst_path : string;
}

let build_disk ?obs ?(wrap = Fun.id) ~dir (pts : (int * int * int) array) =
  mkdir_p dir;
  let bt_path = Filename.concat dir "btree.dat" in
  let pst_path = Filename.concat dir "pst3.dat" in
  let bt_dev =
    wrap (File_dev.create ~path:bt_path ~page_bytes:(Btree.page_bytes ~b:disk_b) ())
  in
  let pst_dev =
    wrap (File_dev.create ~path:pst_path ~page_bytes:(Ext_pst3.page_bytes ~b:disk_b) ())
  in
  let pager =
    Pager.create ~cache_capacity:disk_pool_pages ?obs ~obs_name:"btree"
      ~backend:{ Pager.dev = bt_dev; codec = Btree.codec }
      ~page_capacity:disk_b ()
  in
  let bt = Btree.bulk_load pager (sorted_entries pts) in
  let pst =
    Ext_pst3.create ~cache_capacity:disk_pool_pages ?obs
      ~backend:{ Pager.dev = pst_dev; codec = Ext_pst3.codec }
      ~mode:Ext_pst3.Cached ~b:disk_b (points_of pts)
  in
  { bt; pst; bt_dev; pst_dev; bt_path; pst_path }

let close_disk d =
  d.bt_dev.Block_device.close ();
  d.pst_dev.Block_device.close ()

let disk_bytes d = file_bytes d.bt_path + file_bytes d.pst_path

(* Queries log their logical page reads, then the answer; deletes log
   1 if the entry was found. *)
let log_range d log ~lo ~hi =
  let r, io = Pager.with_counted (Btree.pager d.bt) (fun () -> Btree.range d.bt ~lo ~hi) in
  Stats.Log.add log (io.Io_stats.reads + io.Io_stats.cache_hits);
  List.iter (fun (x, y) -> Stats.Log.add log x; Stats.Log.add log y) r

let log_q3 d log ~xl ~xr ~yb =
  let r, qs = Ext_pst3.query d.pst ~xl ~xr ~yb in
  Stats.Log.add log (Query_stats.total qs);
  List.iter (fun (p : Point.t) -> Stats.Log.add log p.id) r

(* [disk] deletes only preloaded points ([Gen.Cycle_k]); ids index the
   preload. *)
let disk_op d log preload (op : Gen.op) =
  match op with
  | Krange { lo; hi } -> log_range d log ~lo ~hi
  | Lookup x -> log_range d log ~lo:x ~hi:x
  | Q3 { xl; xr; yb } -> log_q3 d log ~xl ~xr ~yb
  | Insert { x; y; _ } -> Btree.insert d.bt ~key:x ~value:y
  | Delete id ->
      let x, y, _ = preload.(id) in
      Stats.Log.add log (if Btree.delete d.bt ~key:x ~value:y then 1 else 0)

let disk_round d m sorted preload log (ops : Gen.op array) =
  Stats.Log.clear log;
  let starts = Array.make (Array.length ops + 1) 0 in
  let w0 = Clock.now_ns () in
  Array.iteri
    (fun i op ->
      starts.(i) <- Stats.Log.length log;
      let a = Clock.now_ns () in
      disk_op d log preload op;
      Stats.Buf.add (lat_buf m (Gen.verb op)) (Clock.now_ns () - a))
    ops;
  m.window_ns <- m.window_ns + (Clock.now_ns () - w0);
  m.ops <- m.ops + Array.length ops;
  starts.(Array.length ops) <- Stats.Log.length log;
  let t = m.tally in
  Array.iteri
    (fun i (op : Gen.op) ->
      t.attempted <- t.attempted + 1;
      let s = starts.(i) and e = starts.(i + 1) in
      let items ~from ~stride f =
        List.init ((e - from) / stride) (fun k -> f (from + (k * stride)))
      in
      let within (v : Pc_obs.Cost_model.Conformance.verdict) =
        if not v.within then
          Check.fail t
            (Printf.sprintf "%s: %d page reads over the conformance bound %.1f"
               (Gen.request op) v.measured v.predicted)
      in
      let range ~lo ~hi =
        let got = items ~from:(s + 1) ~stride:2 (fun j -> (Stats.Log.get log j, Stats.Log.get log (j + 1))) in
        Check.krange_answer t ~lo ~hi ~expected:(Model.Sorted.range sorted ~lo ~hi) got;
        within (Btree.conformance d.bt ~t_out:(List.length got) ~measured:(Stats.Log.get log s))
      in
      match op with
      | Krange { lo; hi } -> range ~lo ~hi
      | Lookup x -> range ~lo:x ~hi:x
      | Q3 { xl; xr; yb } ->
          let got = items ~from:(s + 1) ~stride:1 (Stats.Log.get log) in
          Check.q3_answer t ~pred:(Model.Sorted.q3_pred sorted ~xl ~xr ~yb)
            ~expected:(Model.Sorted.q3 sorted ~xl ~xr ~yb)
            (List.sort Int.compare got);
          within (Ext_pst3.conformance d.pst ~t_out:(List.length got) ~measured:(Stats.Log.get log s))
      | Insert _ -> ()
      | Delete _ -> if Stats.Log.get log s <> 1 then Check.fail t "disk: delete of a live point found nothing")
    ops

let self_hwm_mib () = float_of_int (Serverproc.vm_hwm_kib (Unix.getpid ())) /. 1024.

let run_disk ~seconds ~seed =
  let m = new_measured () in
  let preload = (Gen.create ~seed disk_shape).preload in
  let sorted = Model.Sorted.of_points preload in
  let base = Filename.concat tmp_root (Printf.sprintf "disk-%d" (Unix.getpid ())) in
  Fun.protect ~finally:(fun () -> rm_tmp base) @@ fun () ->
  let times = ref [] in
  let log = Stats.Log.create () in
  for leg = 1 to legs do
    let g = Gen.create ~seed disk_shape in
    let dir = Filename.concat base (string_of_int leg) in
    let t0 = Clock.now_ns () in
    let d = build_disk ~dir preload in
    times := (float_of_int (Clock.now_ns () - t0) /. 1e9) :: !times;
    (try
       while not (leg_done m ~seconds ~leg) do
         disk_round d m sorted preload log (Gen.round g)
       done
     with e ->
       close_disk d;
       raise e);
    close_disk d;
    if leg = 1 then m.bytes_per_point <- float_of_int (disk_bytes d) /. float_of_int disk_n;
    rm_rf dir
  done;
  m.setup_s <- Stats.median_float !times;
  m.rss_mib <- self_hwm_mib ();
  m

(* ------------------------------------------------------------------ *)
(* Output                                                              *)
(* ------------------------------------------------------------------ *)

(* The p50 reported is the mean of the p50s of blocks of 100 samples. *)
let p50 m v =
  let b = lat_buf m v in
  if Stats.Buf.length b = 0 then 0. else Stats.Buf.center b ~block:100 0.5 /. 1e3

(* Tails are taken per block of samples with ten beyond the percentile,
   and the blocks' median reported. *)
let tail m v q =
  let b = lat_buf m v in
  if Stats.Buf.length b = 0 then 0.
  else Stats.Buf.tail b ~block:(int_of_float (Float.round (10. /. (1. -. q)))) q /. 1e3

let end_to_end m =
  [
    ("setup_s", m.setup_s, "s");
    ("ops_per_s", float_of_int m.ops /. (float_of_int m.window_ns /. 1e9), "1/s");
    ("krange_p50_us", p50 m Krange_v, "us");
    ("krange_p99_us", tail m Krange_v 0.99, "us");
    ("q3_p50_us", p50 m Q3_v, "us");
    ("q3_p99_us", tail m Q3_v 0.99, "us");
    ("lookup_p50_us", p50 m Lookup_v, "us");
    ("lookup_p99_us", tail m Lookup_v 0.99, "us");
    ("write_p50_us", p50 m Write_v, "us");
    ("write_p999_ms", tail m Write_v 0.999 /. 1e3, "ms");
    ("rss_mib", m.rss_mib, "MiB");
    ("bytes_per_point", m.bytes_per_point, "B");
  ]

let print_table title rows =
  Printf.eprintf "%s\n" title;
  List.iter (fun (n, v, u) -> Printf.eprintf "  %-34s %14.3f %s\n" n v u) rows

let samples m =
  Array.to_list Gen.verbs
  |> List.map (fun v -> Printf.sprintf "%s=%d" (Gen.verb_name v) (Stats.Buf.length (lat_buf m v)))
  |> String.concat " "

(* The whole latency profile of each verb, to stderr. *)
let print_profile m =
  Array.iter
    (fun v ->
      let b = lat_buf m v in
      if Stats.Buf.length b > 0 then begin
        let a = Stats.Buf.sorted b in
        Printf.eprintf "  %-7s" (Gen.verb_name v);
        List.iter
          (fun q -> Printf.eprintf " p%g=%.1f" (q *. 100.) (us (Stats.percentile a q)))
          [ 0.5; 0.9; 0.95; 0.98; 0.99; 0.995; 0.999; 1.0 ];
        Printf.eprintf " us\n"
      end)
    Gen.verbs

let json ~correct ~attempted ~failed rows =
  let metric (n, v, u) = Printf.sprintf "%S: {\"value\": %.9g, \"unit\": %S}" n v u in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed
    (String.concat ", " (List.map metric rows))

let shape_of = function
  | "scan" -> scan_shape
  | "churn" -> churn_shape
  | _ -> disk_shape

let measure ~exe ~workload ~seed ~seconds =
  match workload with
  | "scan" -> run_server ~exe ~seconds ~writes_from_setup:true scan_shape ~seed
  | "churn" -> run_server ~exe ~seconds ~writes_from_setup:false churn_shape ~seed
  | _ -> run_disk ~seconds ~seed

(* ------------------------------------------------------------------ *)
(* Traced mode: the preload and the first rounds, layer by layer       *)
(* ------------------------------------------------------------------ *)

let med_us b = if Stats.Buf.length b = 0 then 0. else us (Stats.percentile (Stats.Buf.sorted b) 0.5)
let mean n d = if d = 0 then 0. else float_of_int n /. float_of_int d
let req_id = ref 0

let next_req () =
  incr req_id;
  !req_id

(* Latencies of a replay by verb: of the rounds alone, and of the
   preload and rounds together (the writes of [scan] are its preload). *)
type replay = { rounds : Stats.Buf.t array; all : Stats.Buf.t array }

let replay () = { rounds = verb_bufs (); all = verb_bufs () }

let record r ~in_round v dt =
  if in_round then Stats.Buf.add r.rounds.(Gen.verb_index v) dt;
  Stats.Buf.add r.all.(Gen.verb_index v) dt

(* The wire and server layers: the preload and the rounds replayed over
   a fresh server inside spans, then [ping] round trips for the wire
   floor. Latencies by verb, reply bytes by verb. *)
let wire_replay ~exe (g : Gen.t) (rounds : Gen.op array) =
  let lat = replay () in
  let ping = Stats.Buf.create () in
  let bytes = Array.make 4 0 and replies = Array.make 4 0 in
  let srv = Serverproc.spawn exe in
  Fun.protect ~finally:(fun () -> Serverproc.kill srv) @@ fun () ->
  let c = Serverproc.ready srv in
  open_store c;
  let send ~in_round op =
    let req = Gen.request op and v = Gen.verb op in
    let a = Clock.now_ns () in
    let r =
      Spans.with_span ("server." ^ Gen.verb_name v) ~req:(next_req ()) (fun () ->
          Serverproc.request c req)
    in
    record lat ~in_round v (Clock.now_ns () - a);
    bytes.(Gen.verb_index v) <- bytes.(Gen.verb_index v) + String.length r;
    replies.(Gen.verb_index v) <- replies.(Gen.verb_index v) + 1
  in
  Array.iter (send ~in_round:false) (insert_ops g);
  Array.iter (send ~in_round:true) rounds;
  for _ = 1 to 2000 do
    let a = Clock.now_ns () in
    ignore (Spans.with_span "wire.ping" ~req:(next_req ()) (fun () -> Serverproc.request c "ping"));
    Stats.Buf.add ping (Clock.now_ns () - a)
  done;
  ignore (Serverproc.shutdown srv c);
  let per v = mean bytes.(Gen.verb_index v) replies.(Gen.verb_index v) in
  (lat, med_us ping, per Krange_v, per Q3_v)

(* The conc layer: [Shared_store] with the server's defaults, fed the
   same preload and rounds in-process. *)
let conc_replay (g : Gen.t) (rounds : Gen.op array) =
  let s = Shared_store.create ~b:8 ~checkpoint_every:512 [] in
  let lat = replay () in
  let ckpt = Stats.Buf.create () in
  let run ~in_round op =
    let v = Gen.verb op and req = next_req () in
    let before = Shared_store.checkpoints s in
    let a = Clock.now_ns () in
    (match op with
    | Gen.Insert { x; y; id } ->
        Spans.with_span "conc.insert" ~req (fun () -> Shared_store.insert s (Point.make ~x ~y ~id))
    | Delete id -> ignore (Spans.with_span "conc.delete" ~req (fun () -> Shared_store.delete s id))
    | Krange { lo; hi } ->
        ignore (Spans.with_span "conc.krange" ~req (fun () -> Shared_store.krange s ~lo ~hi))
    | Lookup x -> ignore (Spans.with_span "conc.krange" ~req (fun () -> Shared_store.krange s ~lo:x ~hi:x))
    | Q3 { xl; xr; yb } ->
        ignore (Spans.with_span "conc.query3" ~req (fun () -> Shared_store.query3 s ~xl ~xr ~yb)));
    let dt = Clock.now_ns () - a in
    record lat ~in_round v dt;
    if Shared_store.checkpoints s > before then Stats.Buf.add ckpt dt
  in
  Array.iter (run ~in_round:false) (insert_ops g);
  Array.iter (run ~in_round:true) rounds;
  (lat, ckpt, Shared_store.checkpoints s)

(* The structure layers as the store's checkpoint builds them
   (capacity-0 pools, b = 8) over the preloaded point set, and the flat
   sorted array under the same range queries. *)
let structure_replay (g : Gen.t) (rounds : Gen.op array) =
  let bt = Btree.bulk_load_in ~cache_capacity:0 ~b:8 (sorted_entries g.preload) in
  let pst = Ext_pst3.create ~cache_capacity:0 ~mode:Ext_pst3.Cached ~b:8 (points_of g.preload) in
  let arr = Model.Sorted.of_points g.preload in
  let bt_t = Stats.Buf.create () and pst_t = Stats.Buf.create () and arr_t = Stats.Buf.create () in
  let bt_pages = ref 0 and bt_n = ref 0 and pst_pages = ref 0 and pst_n = ref 0 in
  Array.iter
    (fun (op : Gen.op) ->
      match op with
      | Krange { lo; hi } ->
          let req = next_req () in
          let a = Clock.now_ns () in
          let _, io =
            Spans.with_span "btree.range" ~req (fun () ->
                Pager.with_counted (Btree.pager bt) (fun () -> Btree.range bt ~lo ~hi))
          in
          let b = Clock.now_ns () in
          ignore (Spans.with_span "baseline.sorted_array_range" ~req (fun () -> Model.Sorted.range arr ~lo ~hi));
          Stats.Buf.add arr_t (Clock.now_ns () - b);
          Stats.Buf.add bt_t (b - a);
          bt_pages := !bt_pages + io.Io_stats.reads;
          incr bt_n
      | Q3 { xl; xr; yb } ->
          let a = Clock.now_ns () in
          let _, qs =
            Spans.with_span "threesided.query" ~req:(next_req ()) (fun () -> Ext_pst3.query pst ~xl ~xr ~yb)
          in
          Stats.Buf.add pst_t (Clock.now_ns () - a);
          pst_pages := !pst_pages + Query_stats.total qs;
          incr pst_n
      | _ -> ())
    rounds;
  ( med_us bt_t, mean !bt_pages !bt_n, med_us pst_t, mean !pst_pages !pst_n, med_us arr_t )

(* The storage layers: the [disk] structures (file-backed, small pools)
   over the preloaded points, built and queried with a real-clock obs
   handle so both pagers time every pread and decode; the timed phases
   are summed by label as they are emitted. Reads only. *)
let file_replay (g : Gen.t) (rounds : Gen.op array) =
  let dir = Filename.concat tmp_root (Printf.sprintf "trace-%d" (Unix.getpid ())) in
  Fun.protect ~finally:(fun () -> rm_tmp dir) @@ fun () ->
  let phases = Hashtbl.create 8 in
  let on_event (e : Obs.event) =
    if e.kind = Obs.Phase then
      let ns = Option.value ~default:0 (List.assoc_opt "ns" e.args) in
      Hashtbl.replace phases e.label (ns + Option.value ~default:0 (Hashtbl.find_opt phases e.label))
  in
  let obs = Obs.create ~sink:(Obs.custom on_event) ~clock:(Obs.Clock.of_fn Clock.now_ns) () in
  (* page reads as the device sees them, inside the query that asked *)
  let wrap (dev : Block_device.t) =
    { dev with read_page = (fun p -> Spans.with_span "blockdev.read_page" ~req:!req_id (fun () -> dev.read_page p)) }
  in
  let d =
    Spans.with_span "pagestore.build" ~req:(next_req ()) (fun () -> build_disk ~obs ~wrap ~dir g.preload)
  in
  let bt_io () = Pager.stats (Btree.pager d.bt) and pst_io () = Ext_pst3.io_stats d.pst in
  let setup_writes = (bt_io ()).Io_stats.writes + (pst_io ()).Io_stats.writes in
  let on_disk = disk_bytes d in
  let bt0 = Io_stats.snapshot (bt_io ()) and pst0 = Io_stats.snapshot (pst_io ()) in
  let phase_ns name = Option.value ~default:0 (Hashtbl.find_opt phases name) in
  let read0 = phase_ns "dev.read" and dec0 = phase_ns "codec.decode" in
  let lat = verb_bufs () in
  let queries = ref 0 in
  Array.iter
    (fun (op : Gen.op) ->
      let req = next_req () in
      let query name f =
        let a = Clock.now_ns () in
        ignore (Spans.with_span name ~req f);
        Stats.Buf.add lat.(Gen.verb_index (Gen.verb op)) (Clock.now_ns () - a);
        incr queries
      in
      match op with
      | Krange { lo; hi } -> query "pagestore.btree_range" (fun () -> Btree.range d.bt ~lo ~hi)
      | Lookup x -> query "pagestore.btree_range" (fun () -> Btree.range d.bt ~lo:x ~hi:x)
      | Q3 { xl; xr; yb } -> query "pagestore.pst3_query" (fun () -> Ext_pst3.query d.pst ~xl ~xr ~yb)
      | Insert _ | Delete _ -> ())
    rounds;
  let bt = Io_stats.diff ~after:(bt_io ()) ~before:bt0 and pst = Io_stats.diff ~after:(pst_io ()) ~before:pst0 in
  let reads = bt.reads + pst.reads and hits = bt.cache_hits + pst.cache_hits in
  let q = !queries in
  let row =
    [
      ("bufferpool.hit_ratio", mean hits (hits + reads), "ratio");
      ("bufferpool.evictions_per_query", mean (bt.evictions + pst.evictions) q, "count");
      ("blockdev.read_us_per_query", mean (phase_ns "dev.read" - read0) q /. 1e3, "us");
      ("blockdev.decode_us_per_query", mean (phase_ns "codec.decode" - dec0) q /. 1e3, "us");
      ( "blockdev.bytes_read_per_query",
        mean ((bt.reads * Btree.page_bytes ~b:disk_b) + (pst.reads * Ext_pst3.page_bytes ~b:disk_b)) q,
        "B" );
      ("pagestore.setup_page_writes", float_of_int setup_writes, "count");
      ("blockdev.bytes_on_disk", float_of_int on_disk, "B");
    ]
  in
  close_disk d;
  (lat, row)

(* Rounds the traced mode replays: the seed's first ones. *)
let replay_rounds = 4

let traced ~exe ~workload ~seed ~seconds =
  let a = measure ~exe ~workload ~seed ~seconds in
  (* the replays regenerate the seed's inputs: the same preload and the
     same first rounds the measured run began with *)
  let g = Gen.create ~seed (shape_of workload) in
  let rounds = Array.concat (List.init replay_rounds (fun _ -> Gen.round g)) in
  let wire_lat, ping_us, bytes_krange, bytes_q3 = wire_replay ~exe g rounds in
  let conc_lat, ckpt, checkpoints = conc_replay g rounds in
  let bt_us, bt_pages, pst_us, pst_pages, arr_us = structure_replay g rounds in
  let file_lat, file_row = file_replay g rounds in
  let p50 (r : Stats.Buf.t array) v = med_us r.(Gen.verb_index v) in
  let self v (w : replay) (c : replay) =
    let pick (r : replay) = if v = Gen.Write_v then r.all else r.rounds in
    p50 (pick w) v -. p50 (pick c) v -. ping_us
  in
  let layers =
    [
      ("wire.ping_p50_us", ping_us, "us");
      ("wire.reply_bytes_krange", bytes_krange, "B/op");
      ("wire.reply_bytes_q3", bytes_q3, "B/op");
      ("server.self_us_krange", self Krange_v wire_lat conc_lat, "us");
      ("server.self_us_q3", self Q3_v wire_lat conc_lat, "us");
      ("server.self_us_write", self Write_v wire_lat conc_lat, "us");
      ("conc.krange_us", p50 conc_lat.rounds Krange_v, "us");
      ("conc.query3_us", p50 conc_lat.rounds Q3_v, "us");
      ("conc.merge_us_krange", p50 conc_lat.rounds Krange_v -. bt_us, "us");
      ("conc.merge_us_q3", p50 conc_lat.rounds Q3_v -. pst_us, "us");
      ("conc.write_us", p50 conc_lat.all Write_v, "us");
      ("conc.checkpoint_ms", med_us ckpt /. 1e3, "ms");
      ("conc.checkpoints", float_of_int checkpoints, "count");
      ("btree.range_us", bt_us, "us");
      ("btree.pages_per_range", bt_pages, "pages");
      ("threesided.query_us", pst_us, "us");
      ("threesided.pages_per_query", pst_pages, "pages");
      ("baseline.sorted_array_range_us", arr_us, "us");
    ]
    @ file_row
  in
  (* Tracing overhead: the traced replay of the first rounds against the
     same operations at the start of the untraced run. *)
  let traced_lat = if workload = "disk" then file_lat else wire_lat.rounds in
  Printf.eprintf "%s seed=%d p50 of the first %d rounds: untraced, traced\n" workload seed
    replay_rounds;
  Array.iter
    (fun v ->
      let t = traced_lat.(Gen.verb_index v) and u = lat_buf a v in
      let k = Stats.Buf.length t in
      if k > 0 && Stats.Buf.length u >= k then begin
        let first = Array.sub u.Stats.Buf.a 0 k in
        Stats.sort first;
        let u = us (Stats.percentile first 0.5) and t = med_us t in
        Printf.eprintf "  %-8s %12.3f us %12.3f us  x%.3f\n" (Gen.verb_name v) u t (t /. u)
      end)
    Gen.verbs;
  mkdir_p ".bench_out";
  let path = Printf.sprintf ".bench_out/trace-%s-%d.json" workload seed in
  Spans.write_chrome path;
  Printf.eprintf "spans: %d written to %s\n" !Spans.count path;
  (a, layers)

(* ------------------------------------------------------------------ *)
(* Main                                                                *)
(* ------------------------------------------------------------------ *)

(* A 32 MiB minor heap for the process that runs [disk]'s structures
   (and the wire client). With the default 2 MiB, about one lookup in a
   hundred meets a minor collection, so lookup p99 sat on the cliff
   between the two modes and moved by half from run to run; with 32 MiB
   lookups and writes meet one rarely enough that their tails measure
   the query, and q3, which allocates most, meets one often enough that
   its p99 sits inside the collection mode, away from the cliff. The
   server keeps the runtime's defaults. *)
let () = Gc.set { (Gc.get ()) with minor_heap_size = 4 * 1024 * 1024 }

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 in
  let trace = ref 0 and exe = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "scan|churn|disk");
      ("--seed", Arg.Set_int seed, "N  input seed");
      ("--seconds", Arg.Set_int seconds, "S  measured time per run");
      ("--trace", Arg.Set_int trace, "0|1  per-layer traced mode");
      ("--server", Arg.Set_string exe, "EXE  pathcache_server binary");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "pcbench --server EXE --workload W --seed N --seconds S --trace 0|1";
  if not (List.mem !workload [ "scan"; "churn"; "disk" ]) then begin
    prerr_endline "pcbench: --workload is scan, churn or disk";
    exit 2
  end;
  if !exe = "" then begin
    prerr_endline "pcbench: --server is required";
    exit 2
  end;
  let m, rows =
    if !trace = 1 then traced ~exe:!exe ~workload:!workload ~seed:!seed ~seconds:!seconds
    else
      (measure ~exe:!exe ~workload:!workload ~seed:!seed ~seconds:!seconds, [])
  in
  print_table
    (Printf.sprintf "%s seed=%d end-to-end (samples: %s)" !workload !seed (samples m))
    (end_to_end m);
  print_profile m;
  if rows <> [] then print_table "per-layer" rows;
  List.iter (fun n -> Printf.eprintf "FAIL %s\n" n) (List.rev m.tally.notes);
  let correct = m.tally.failed = 0 && m.run_ok in
  json ~correct ~attempted:m.tally.attempted ~failed:m.tally.failed
    (if !trace = 1 then rows else end_to_end m)
