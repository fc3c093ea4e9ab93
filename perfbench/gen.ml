(* Seeded inputs. Everything the program receives — the preload and the
   operation stream — is generated here from the workload's seed, before
   any timed window opens; the program never sees the seed. *)

type op =
  | Insert of { x : int; y : int; id : int }
  | Delete of int
  | Krange of { lo : int; hi : int }
  | Lookup of int  (** [krange X X]: the pairs at one key *)
  | Q3 of { xl : int; xr : int; yb : int }

(* One slot of a round. [Cycle_k] is a delete of a live point followed at
   once by its re-insert, so the point set seen by every read is the
   preload's: [disk]'s static 3-sided structure stays exact, and a
   bulk-loaded B-tree leaf goes from full to one short and back, with no
   split or merge to change the shape the page bounds are stated for. *)
type kind = Krange_k | Q3_k | Lookup_k | Insert_k | Delete_k | Cycle_k

type shape = {
  n : int;  (** preloaded points *)
  krange_pairs : int;  (** expected pairs per [Krange] *)
  q3_ids : int;  (** expected ids per [Q3] *)
  round : (kind * int) list;  (** slots per round, shuffled *)
}

(* Both coordinates are uniform over [0, universe). *)
let universe = 1 lsl 20

(* [Q3] asks for the top quarter of y over an x slab. *)
let q3_yb = universe - (universe / 4)

let krange_width s = max 1 (s.krange_pairs * universe / s.n)
let q3_width s = max 1 (s.q3_ids * 4 * universe / s.n)

type t = {
  rng : Random.State.t;
  shape : shape;
  preload : (int * int * int) array;  (** (x, y, id), ids 0 .. n-1 *)
  mutable live : int array;  (** live ids, unordered *)
  mutable nlive : int;
  slot : (int, int) Hashtbl.t;  (** id -> index in [live] *)
  xs : (int, int) Hashtbl.t;  (** live id -> x *)
  mutable next_id : int;
}

let add_live g id x =
  if g.nlive = Array.length g.live then begin
    let a = Array.make (2 * g.nlive) 0 in
    Array.blit g.live 0 a 0 g.nlive;
    g.live <- a
  end;
  g.live.(g.nlive) <- id;
  Hashtbl.replace g.slot id g.nlive;
  Hashtbl.replace g.xs id x;
  g.nlive <- g.nlive + 1

let remove_live g id =
  let i = Hashtbl.find g.slot id in
  let last = g.live.(g.nlive - 1) in
  g.live.(i) <- last;
  Hashtbl.replace g.slot last i;
  Hashtbl.remove g.slot id;
  Hashtbl.remove g.xs id;
  g.nlive <- g.nlive - 1

let coord g = Random.State.int g.rng universe

let create ~seed shape =
  let rng = Random.State.make [| seed; shape.n; 0x9e37 |] in
  let preload =
    Array.init shape.n (fun id ->
        let x = Random.State.int rng universe in
        let y = Random.State.int rng universe in
        (x, y, id))
  in
  let g =
    {
      rng;
      shape;
      preload;
      live = Array.make (max 1 shape.n) 0;
      nlive = 0;
      slot = Hashtbl.create (2 * shape.n);
      xs = Hashtbl.create (2 * shape.n);
      next_id = shape.n;
    }
  in
  Array.iter (fun (x, _, id) -> add_live g id x) preload;
  g

let random_live g = g.live.(Random.State.int g.rng g.nlive)

let fresh_insert g =
  let x = coord g and y = coord g and id = g.next_id in
  g.next_id <- id + 1;
  add_live g id x;
  Insert { x; y; id }

let delete_live g =
  let id = random_live g in
  remove_live g id;
  Delete id

(* [round g] is the next round: the shape's slots in a seeded shuffle,
   so every verb meets the same drift. Every round of a workload holds
   the same operations in the same shares. *)
let round g =
  let s = g.shape in
  let bag =
    Array.of_list (List.concat_map (fun (k, c) -> List.init c (fun _ -> k)) s.round)
  in
  for i = Array.length bag - 1 downto 1 do
    let j = Random.State.int g.rng (i + 1) in
    let t = bag.(i) in
    bag.(i) <- bag.(j);
    bag.(j) <- t
  done;
  let kw = krange_width s and qw = q3_width s in
  let ops = ref [] in
  let push o = ops := o :: !ops in
  Array.iter
    (function
      | Krange_k ->
          let lo = Random.State.int g.rng (universe - kw) in
          push (Krange { lo; hi = lo + kw - 1 })
      | Q3_k ->
          let xl = Random.State.int g.rng (universe - qw) in
          push (Q3 { xl; xr = xl + qw - 1; yb = q3_yb })
      | Lookup_k -> push (Lookup (Hashtbl.find g.xs (random_live g)))
      | Insert_k -> push (fresh_insert g)
      | Delete_k -> push (delete_live g)
      | Cycle_k ->
          let id = random_live g in
          let x, y, _ = g.preload.(id) in
          push (Delete id);
          push (Insert { x; y; id }))
    bag;
  Array.of_list (List.rev !ops)

type verb = Krange_v | Q3_v | Lookup_v | Write_v

let verb = function
  | Insert _ | Delete _ -> Write_v
  | Krange _ -> Krange_v
  | Lookup _ -> Lookup_v
  | Q3 _ -> Q3_v

let verb_index = function Krange_v -> 0 | Q3_v -> 1 | Lookup_v -> 2 | Write_v -> 3
let verbs = [| Krange_v; Q3_v; Lookup_v; Write_v |]
let verb_name = function
  | Krange_v -> "krange"
  | Q3_v -> "q3"
  | Lookup_v -> "lookup"
  | Write_v -> "write"

(* The request line the server receives for [op]. *)
let request = function
  | Insert { x; y; id } -> Printf.sprintf "insert %d %d %d" x y id
  | Delete id -> Printf.sprintf "delete %d" id
  | Krange { lo; hi } -> Printf.sprintf "krange %d %d" lo hi
  | Lookup x -> Printf.sprintf "krange %d %d" x x
  | Q3 { xl; xr; yb } -> Printf.sprintf "q3 %d %d %d" xl xr yb
