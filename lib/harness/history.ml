(** Operation-history recording and linearizability checking for small
    traced runs.

    The simulator gives every operation an invocation and a response
    cycle stamp (per-thread clocks advance as accesses are charged, and
    the scheduler interleaves threads by clock, so cycle stamps are the
    simulated real-time order).  An execution is linearizable iff every
    operation can be assigned a linearization point between its
    invocation and response such that the resulting sequential history
    satisfies the set semantics.

    Set operations on distinct keys commute and their results depend
    only on that key's membership, so the search is decomposed per key:
    each key's sub-history is checked independently against a single
    boolean membership state with the classic Wing&Gong recursion
    (repeatedly linearize some minimal pending operation whose result
    matches the sequential semantics), memoizing visited
    (linearized-set, membership) states.  A visited state is one that
    failed, so the memo is a set of failed states: a bit set indexed by
    [mask * 2 + membership] for a key with at most {!bitset_max_ops}
    operations (the SCT scripts' keys, checked once per explored
    schedule), a hash table for the longer per-key histories of the
    service spot-check.  Grouping by key is a stable sort, not a
    table.  This is exact — sound and complete — for set histories,
    and fast for the small per-key histories the conformance tests
    record. *)

type op_kind = Workload.op = Search | Insert | Remove

let kind_name = function Search -> "search" | Insert -> "insert" | Remove -> "remove"

type event = {
  tid : int;
  kind : op_kind;
  key : int;
  result : bool;  (** search: found; insert/remove: succeeded *)
  inv : int;  (** invocation cycle stamp *)
  res : int;  (** response cycle stamp *)
}

type t = { mutable events : event list; mutable nevents : int; mutable initial : int list }

let create () = { events = []; nevents = 0; initial = [] }

(** Declare [key] present before the measured run (prefill). *)
let add_initial t key = t.initial <- key :: t.initial

let record t ~tid ~kind ~key ~result ~inv ~res =
  t.events <- { tid; kind; key; result; inv; res } :: t.events;
  t.nevents <- t.nevents + 1

let length t = t.nevents

type violation = { v_key : int; v_detail : string }

let pp_violation v = Printf.sprintf "key %d: %s" v.v_key v.v_detail

exception Too_large of int

(* Cap on operations per key: the checker is worst-case exponential, so
   refuse histories far beyond what the memoized search handles fast. *)
let max_ops_per_key = 62

(* Keys with at most this many operations memoize failed states in a
   bit set of [2 lsl n] bits (at most 1 KiB); longer ones in a table. *)
let bitset_max_ops = 12

(* Check one key's sub-history. [ops] is an array of events on this key;
   [initial] is the key's starting membership. *)
let check_key ~key ~initial ops =
  let n = Array.length ops in
  if n > max_ops_per_key then raise (Too_large n);
  let full = (1 lsl n) - 1 in
  (* Memoize states that already failed: membership is a bool, so a
     state is (linearized mask, membership), numbered [mask * 2 +
     membership]. *)
  let small = n <= bitset_max_ops in
  let bits = Bytes.make (if small then ((2 lsl n) + 7) / 8 else 0) '\000' in
  let tbl = if small then None else Some (Hashtbl.create 256) in
  let seen s =
    match tbl with
    | None -> Char.code (Bytes.unsafe_get bits (s lsr 3)) land (1 lsl (s land 7)) <> 0
    | Some h -> Hashtbl.mem h s
  in
  let add s =
    match tbl with
    | None ->
        let b = Char.code (Bytes.unsafe_get bits (s lsr 3)) in
        Bytes.unsafe_set bits (s lsr 3) (Char.unsafe_chr (b lor (1 lsl (s land 7))))
    | Some h -> Hashtbl.add h s ()
  in
  let rec go mask present =
    let s = (mask lsl 1) lor Bool.to_int present in
    mask = full
    || (not (seen s))
       && begin
            add s;
            (* earliest response among pending ops: anything invoked after
               it cannot be linearized next *)
            let min_res = ref max_int in
            for i = 0 to n - 1 do
              if mask land (1 lsl i) = 0 && ops.(i).res < !min_res then min_res := ops.(i).res
            done;
            let ok = ref false in
            let i = ref 0 in
            while (not !ok) && !i < n do
              let idx = !i in
              incr i;
              if mask land (1 lsl idx) = 0 && ops.(idx).inv <= !min_res then begin
                let op = ops.(idx) in
                let expected, present' =
                  match op.kind with
                  | Search -> (present, present)
                  | Insert -> (not present, true)
                  | Remove -> (present, false)
                in
                if op.result = expected && go (mask lor (1 lsl idx)) present' then ok := true
              end
            done;
            !ok
          end
  in
  if go 0 initial then Ok ()
  else
    Error
      {
        v_key = key;
        v_detail =
          Printf.sprintf
            "no linearization of %d operation(s) matches set semantics (initial=%b): %s" n initial
            (String.concat "; "
               (List.map
                  (fun o ->
                    Printf.sprintf "t%d %s->%b @[%d,%d]" o.tid (kind_name o.kind) o.result o.inv
                      o.res)
                  (Array.to_list ops)));
      }

(* The oldest-first per-key order [check] has always sorted from,
   ordered by (inv, res): [Array.sort] is not stable, so tied ops keep
   their places only because its input and comparisons are unchanged. *)
let by_time a b =
  let c = Int.compare a.inv b.inv in
  if c <> 0 then c else Int.compare a.res b.res

(** [check t] returns [Ok ()] iff the recorded history is linearizable
    with respect to the sequential set semantics, [Error v] naming a key
    whose sub-history admits no valid linearization.  Raises {!Too_large}
    if some key has more than {!max_ops_per_key} operations. *)
let check t =
  (* events oldest first, then grouped by key: stable, so each key's
     run stays oldest first *)
  let events = Array.of_list t.events in
  let n = Array.length events in
  for i = 0 to (n / 2) - 1 do
    let e = events.(i) in
    events.(i) <- events.(n - 1 - i);
    events.(n - 1 - i) <- e
  done;
  Array.stable_sort (fun a b -> Int.compare a.key b.key) events;
  let initial = Array.of_list t.initial in
  Array.sort Int.compare initial;
  let rec present k lo hi =
    lo < hi
    &&
    let mid = (lo + hi) / 2 in
    let c = Int.compare initial.(mid) k in
    c = 0 || if c < 0 then present k (mid + 1) hi else present k lo mid
  in
  let rec loop lo =
    if lo >= n then Ok ()
    else begin
      let k = events.(lo).key in
      let hi = ref (lo + 1) in
      while !hi < n && events.(!hi).key = k do
        incr hi
      done;
      let ops = Array.sub events lo (!hi - lo) in
      (* sort by invocation for deterministic search order *)
      Array.sort by_time ops;
      match check_key ~key:k ~initial:(present k 0 (Array.length initial)) ops with
      | Ok () -> loop !hi
      | Error _ as e -> e
    end
  in
  loop 0

let linearizable t = match check t with Ok () -> true | Error _ -> false
