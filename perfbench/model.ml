(* The benchmark's own picture of the live points, built only from the
   generated operations — never from the program's replies. *)

module Key = struct
  type t = int * int * int (* x, y, id *)

  let compare (x1, y1, i1) (x2, y2, i2) =
    if x1 <> x2 then Int.compare x1 x2
    else if y1 <> y2 then Int.compare y1 y2
    else Int.compare i1 i2
end

module S = Set.Make (Key)

(* Live multiset of (x, y) keyed by id: the server workloads' model. *)
type t = { mutable set : S.t; ids : (int, int * int) Hashtbl.t }

let create () = { set = S.empty; ids = Hashtbl.create 4096 }
let size m = Hashtbl.length m.ids
let find m id = Hashtbl.find_opt m.ids id

let delete m id =
  match Hashtbl.find_opt m.ids id with
  | None -> false
  | Some (x, y) ->
      Hashtbl.remove m.ids id;
      m.set <- S.remove (x, y, id) m.set;
      true

(* Points are upserted by id, as the store does. *)
let insert m ~x ~y ~id =
  ignore (delete m id);
  Hashtbl.replace m.ids id (x, y);
  m.set <- S.add (x, y, id) m.set

let fold_x m ~lo ~hi f acc =
  let rec go seq acc =
    match seq () with
    | Seq.Cons (((x, _, _) as k), rest) when x <= hi -> go rest (f k acc)
    | _ -> acc
  in
  go (S.to_seq_from (lo, min_int, min_int) m.set) acc

(* Sorted (x, y) pairs with [lo <= x <= hi], duplicates kept. *)
let krange m ~lo ~hi =
  List.rev (fold_x m ~lo ~hi (fun (x, y, _) acc -> (x, y) :: acc) [])

(* Ids with [xl <= x <= xr, y >= yb], ascending. *)
let q3 m ~xl ~xr ~yb =
  fold_x m ~lo:xl ~hi:xr
    (fun (_, y, id) acc -> if y >= yb then id :: acc else acc)
    []
  |> List.sort Int.compare

let q3_pred m ~xl ~xr ~yb id =
  match find m id with
  | Some (x, y) -> xl <= x && x <= xr && y >= yb
  | None -> false

(* A flat sorted array of points: the [disk] workload's reference and the
   traced mode's floor for a range scan. *)
module Sorted = struct
  type t = {
    xs : int array;
    ys : int array;
    ids : int array;
    by_id : (int, int * int) Hashtbl.t;
  }

  let of_points (pts : (int * int * int) array) =
    let a = Array.copy pts in
    Array.sort Key.compare a;
    let by_id = Hashtbl.create (Array.length a) in
    Array.iter (fun (x, y, id) -> Hashtbl.replace by_id id (x, y)) a;
    {
      xs = Array.map (fun (x, _, _) -> x) a;
      ys = Array.map (fun (_, y, _) -> y) a;
      ids = Array.map (fun (_, _, id) -> id) a;
      by_id;
    }

  (* first index whose x is >= v *)
  let lower_bound t v =
    let lo = ref 0 and hi = ref (Array.length t.xs) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if t.xs.(mid) < v then lo := mid + 1 else hi := mid
    done;
    !lo

  let range t ~lo ~hi =
    let n = Array.length t.xs in
    let rec go i acc =
      if i >= n || t.xs.(i) > hi then List.rev acc
      else go (i + 1) ((t.xs.(i), t.ys.(i)) :: acc)
    in
    go (lower_bound t lo) []

  let q3 t ~xl ~xr ~yb =
    let n = Array.length t.xs in
    let rec go i acc =
      if i >= n || t.xs.(i) > xr then acc
      else go (i + 1) (if t.ys.(i) >= yb then t.ids.(i) :: acc else acc)
    in
    List.sort Int.compare (go (lower_bound t xl) [])

  let q3_pred t ~xl ~xr ~yb id =
    match Hashtbl.find_opt t.by_id id with
    | Some (x, y) -> xl <= x && x <= xr && y >= yb
    | None -> false
end
