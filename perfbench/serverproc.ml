(* A live [pathcache_server] child: spawned on an ephemeral port with
   one worker domain, found ready by [ping], stopped by [shutdown]. *)

type t = {
  pid : int;
  out : in_channel;  (** the server's stdout: banner, then exit line *)
  port : int;
}

(* "pathcache_server: 1 worker domain(s) on 127.0.0.1:PORT (...)" *)
let port_of_banner line =
  try Scanf.sscanf line "pathcache_server: %d worker domain(s) on %_[0-9.]:%d" (fun _ p -> Some p)
  with Scanf.Scan_failure _ | Failure _ | End_of_file -> None

let spawn exe =
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  let argv = [| exe; "--port"; "0"; "--workers"; "1" |] in
  let pid = Unix.create_process exe argv devnull out_w Unix.stderr in
  Unix.close out_w;
  Unix.close devnull;
  let out = Unix.in_channel_of_descr out_r in
  match port_of_banner (input_line out) with
  | Some port -> { pid; out; port }
  | None | (exception End_of_file) ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid);
      close_in_noerr out;
      failwith "pathcache_server printed no port banner"

(* A session: the socket plus the time of its last request, so a caller
   can reconnect before the server's 5 s idle timeout drops it. *)
type conn = { fd : Unix.file_descr; mutable last_ns : int }

let connect t =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, t.port));
  { fd; last_ns = Perfbench.Clock.now_ns () }

let request c line =
  let r = Pc_server.Wire.request c.fd line in
  c.last_ns <- Perfbench.Clock.now_ns ();
  match r with
  | Ok reply -> reply
  | Error e -> "err client: " ^ Pc_server.Wire.error_to_string e

let disconnect c = try Unix.close c.fd with Unix.Unix_error _ -> ()

(* Ready once a [ping] round-trips; the banner is printed after the
   socket is bound, so this rarely loops. *)
let ready t =
  let rec go tries =
    match connect t with
    | c ->
        let r = request c "ping" in
        if r = "ok pong" then c
        else begin
          disconnect c;
          if tries = 0 then failwith ("server not ready: " ^ r);
          go (tries - 1)
        end
    | exception Unix.Unix_error _ when tries > 0 ->
        Unix.sleepf 0.001;
        go (tries - 1)
  in
  go 1000

(* Peak resident set of the server, from /proc/<pid>/status. *)
let vm_hwm_kib pid =
  let ic = open_in (Printf.sprintf "/proc/%d/status" pid) in
  let rec go () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf line "VmHWM: %d kB" (fun k -> k)
    | _ -> go ()
    | exception End_of_file -> 0
  in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) go

(* [shutdown t c] sends [shutdown] on [c] and reaps the server; [true]
   iff it acknowledged and exited with status 0. *)
let shutdown t c =
  let ack = request c "shutdown" in
  disconnect c;
  let _, status = Unix.waitpid [] t.pid in
  (try while true do ignore (input_line t.out) done with End_of_file -> ());
  close_in_noerr t.out;
  ack = "ok shutting down" && status = Unix.WEXITED 0

(* Last resort on an exception path: never leave a server running. *)
let kill t =
  (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] t.pid) with Unix.Unix_error _ -> ());
  close_in_noerr t.out
