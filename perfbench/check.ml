(* The answer checker. Every reply is compared with the model's answer
   and with properties that hold whatever the model says; a mismatch or
   an [err] reply is one failed operation. *)

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable notes : string list;  (** the first few failures, for stderr *)
}

let tally () = { attempted = 0; failed = 0; notes = [] }

let fail t msg =
  t.failed <- t.failed + 1;
  if List.length t.notes < 5 then t.notes <- msg :: t.notes

(* Reply parsing — the benchmark's own, independent of the server's
   encoder. *)
let strip_prefix ~prefix s =
  let n = String.length prefix in
  if String.length s >= n && String.sub s 0 n = prefix then
    Some (String.sub s n (String.length s - n))
  else None

let items body = if body = "" then [] else String.split_on_char ',' body

let parse_pairs reply =
  match strip_prefix ~prefix:"ok pairs " reply with
  | None -> None
  | Some body -> (
      try
        Some
          (List.map
             (fun it ->
               match String.split_on_char ':' it with
               | [ x; y ] -> (int_of_string x, int_of_string y)
               | _ -> failwith "pair")
             (items body))
      with Failure _ -> None)

let parse_ids reply =
  match strip_prefix ~prefix:"ok ids " reply with
  | None -> None
  | Some body -> (
      try Some (List.map int_of_string (items body)) with Failure _ -> None)

let rec sorted_by cmp = function
  | a :: (b :: _ as rest) -> cmp a b <= 0 && sorted_by cmp rest
  | _ -> true

(* A key-range answer: sorted, inside [lo, hi], equal to [expected]. *)
let krange_answer t ~lo ~hi ~expected got =
  if not (sorted_by compare got) then fail t "krange: pairs not sorted"
  else if not (List.for_all (fun (x, _) -> lo <= x && x <= hi) got) then
    fail t (Printf.sprintf "krange %d %d: pair outside range" lo hi)
  else if got <> expected then
    fail t
      (Printf.sprintf "krange %d %d: %d pairs, model has %d" lo hi
         (List.length got) (List.length expected))

(* A 3-sided answer as ascending ids: each satisfies the predicate,
   and the set equals [expected]. *)
let q3_answer t ~pred ~expected got =
  if not (sorted_by Int.compare got) then fail t "q3: ids not sorted"
  else if not (List.for_all pred got) then
    fail t "q3: an id outside the query"
  else if got <> expected then
    fail t
      (Printf.sprintf "q3: %d ids, model has %d" (List.length got)
         (List.length expected))

(* [server_reply m t op reply] checks one wire reply against the model
   as it stood before [op], then applies [op] to the model. *)
let server_reply m t (op : Gen.op) reply =
  t.attempted <- t.attempted + 1;
  if String.length reply >= 3 && String.sub reply 0 3 = "err" then
    fail t ("err reply: " ^ reply)
  else
    match op with
    | Insert { x; y; id } ->
        if reply <> "ok" then fail t ("insert: " ^ reply);
        Model.insert m ~x ~y ~id
    | Delete id ->
        let expected = Printf.sprintf "ok %b" (Model.find m id <> None) in
        if reply <> expected then fail t ("delete: " ^ reply);
        ignore (Model.delete m id)
    | Krange { lo; hi } -> (
        match parse_pairs reply with
        | None -> fail t ("krange: unparsable " ^ reply)
        | Some got -> krange_answer t ~lo ~hi ~expected:(Model.krange m ~lo ~hi) got)
    | Lookup x -> (
        match parse_pairs reply with
        | None -> fail t ("lookup: unparsable " ^ reply)
        | Some got ->
            krange_answer t ~lo:x ~hi:x ~expected:(Model.krange m ~lo:x ~hi:x) got)
    | Q3 { xl; xr; yb } -> (
        match parse_ids reply with
        | None -> fail t ("q3: unparsable " ^ reply)
        | Some got ->
            q3_answer t ~pred:(Model.q3_pred m ~xl ~xr ~yb)
              ~expected:(Model.q3 m ~xl ~xr ~yb) got)

(* The [size=S] field of a [stats] reply. *)
let stats_size reply =
  String.split_on_char ' ' reply
  |> List.find_map (fun w -> strip_prefix ~prefix:"size=" w)
  |> Option.map int_of_string_opt
  |> Option.join
