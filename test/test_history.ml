(* Adversarial tests for the linearizability checker itself.

   The SCT oracles lean on [Ascy_harness.History.check]; these tests
   feed it hand-built histories whose verdicts are known: legal
   concurrent interleavings it must accept, and classic anomalies —
   lost updates, stale reads, real-time order violations — it must
   reject.  Also pins the [Too_large] cap on per-key history size. *)

module H = Ascy_harness.History

(* Build a history from (tid, kind, key, result, inv, res) tuples. *)
let history ?(initial = []) events =
  let h = H.create () in
  List.iter (H.add_initial h) initial;
  List.iter
    (fun (tid, kind, key, result, inv, res) -> H.record h ~tid ~kind ~key ~result ~inv ~res)
    events;
  h

let accepts msg h = Alcotest.(check bool) msg true (H.linearizable h)

let rejects msg h =
  match H.check h with
  | Ok () -> Alcotest.fail (msg ^ ": checker accepted a non-linearizable history")
  | Error v ->
      (* violations render with the offending key *)
      Alcotest.(check bool) "violation message is non-empty" true
        (String.length (H.pp_violation v) > 0)

(* ------------------------------------------------------------------ *)
(* Histories the checker must accept                                   *)
(* ------------------------------------------------------------------ *)

let test_accept_racing_inserts () =
  (* two concurrent inserts of the same absent key: exactly one wins *)
  accepts "racing inserts, one winner"
    (history
       [ (0, H.Insert, 1, true, 0, 10); (1, H.Insert, 1, false, 5, 15) ])

let test_accept_overlapping_remove_pair () =
  (* remove->false may linearize before the concurrent remove->true
     finishes only if their windows overlap *)
  accepts "overlapping removes commute"
    (history ~initial:[ 1 ]
       [ (0, H.Remove, 1, true, 0, 30); (1, H.Remove, 1, false, 5, 25) ])

let test_accept_disjoint_keys () =
  accepts "independent keys check independently"
    (history ~initial:[ 2 ]
       [
         (0, H.Insert, 1, true, 0, 10);
         (1, H.Remove, 2, true, 0, 12);
         (0, H.Search, 1, true, 12, 20);
         (1, H.Insert, 2, true, 14, 22);
       ])

(* ------------------------------------------------------------------ *)
(* Histories the checker must reject                                   *)
(* ------------------------------------------------------------------ *)

let test_reject_double_insert () =
  (* sequential double insert of the same key both succeeding = lost
     state: the second must observe the first *)
  rejects "double successful insert"
    (history [ (0, H.Insert, 1, true, 0, 10); (1, H.Insert, 1, true, 20, 30) ])

let test_reject_double_remove () =
  rejects "double successful remove of a single key"
    (history ~initial:[ 1 ]
       [ (0, H.Remove, 1, true, 0, 10); (1, H.Remove, 1, true, 20, 30) ])

let test_reject_phantom_search () =
  rejects "search finds a key never inserted"
    (history [ (0, H.Search, 7, true, 0, 5) ])

let test_reject_stale_search () =
  rejects "search misses a stably present key"
    (history ~initial:[ 7 ] [ (0, H.Search, 7, false, 0, 5) ])

let test_reject_real_time_order () =
  (* remove->false completes strictly before remove->true starts: with
     the key initially present there is no legal order (this is the
     anomaly a per-thread clock would smuggle past the checker) *)
  rejects "non-overlapping results contradict real-time order"
    (history ~initial:[ 1 ]
       [ (1, H.Remove, 1, false, 0, 10); (0, H.Remove, 1, true, 20, 30) ])

let test_reject_lost_update () =
  (* the seq-list SCT counterexample shape: two inserts both succeed,
     then a search proves one vanished *)
  rejects "lost update surfaces through a later search"
    (history
       [
         (0, H.Insert, 1, true, 0, 10);
         (1, H.Insert, 1, true, 12, 22);
         (0, H.Search, 1, false, 30, 35);
       ])

let test_reject_one_bad_key_among_good () =
  rejects "a single bad key fails the whole history"
    (history ~initial:[ 2 ]
       [
         (0, H.Insert, 1, true, 0, 10);
         (1, H.Search, 2, true, 0, 8);
         (0, H.Search, 9, true, 12, 20);
       ])

(* ------------------------------------------------------------------ *)
(* Capacity cap                                                        *)
(* ------------------------------------------------------------------ *)

let test_too_large () =
  let h = H.create () in
  for i = 0 to 62 do
    H.record h ~tid:0 ~kind:H.Search ~key:1 ~result:false ~inv:(2 * i) ~res:((2 * i) + 1)
  done;
  Alcotest.check_raises "per-key cap enforced" (H.Too_large 63) (fun () -> ignore (H.check h))

let test_under_cap_still_checked () =
  let h = H.create () in
  for i = 0 to 61 do
    H.record h ~tid:0 ~kind:H.Search ~key:1 ~result:false ~inv:(2 * i) ~res:((2 * i) + 1)
  done;
  Alcotest.(check bool) "62 ops per key still checked" true (H.linearizable h)

(* ------------------------------------------------------------------ *)
(* The checker against its earlier, hash-table form                    *)
(* ------------------------------------------------------------------ *)

(* The checker as it was before grouping became a sort and the memo a
   bit set: events grouped by key in a hash table, failed states in a
   hash table, ops sorted by a polymorphic tuple compare.  [events] are
   in record order. *)
let ref_check ~initial events =
  let check_key ~key ~initial (ops : H.event array) =
    let n = Array.length ops in
    let full = (1 lsl n) - 1 in
    let seen = Hashtbl.create 256 in
    let rec go mask present =
      mask = full
      || (not (Hashtbl.mem seen (mask, present)))
         && begin
              Hashtbl.add seen (mask, present) ();
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
                    | H.Search -> (present, present)
                    | H.Insert -> (not present, true)
                    | H.Remove -> (present, false)
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
          H.v_key = key;
          v_detail =
            Printf.sprintf
              "no linearization of %d operation(s) matches set semantics (initial=%b): %s" n
              initial
              (String.concat "; "
                 (List.map
                    (fun (o : H.event) ->
                      Printf.sprintf "t%d %s->%b @[%d,%d]" o.tid (H.kind_name o.kind) o.result
                        o.inv o.res)
                    (Array.to_list ops)));
        }
  in
  let by_key = Hashtbl.create 64 in
  List.iter
    (fun (e : H.event) ->
      let l = try Hashtbl.find by_key e.key with Not_found -> [] in
      Hashtbl.replace by_key e.key (e :: l))
    (List.rev events);
  let keys = Hashtbl.fold (fun k _ acc -> k :: acc) by_key [] in
  let rec loop = function
    | [] -> Ok ()
    | k :: rest -> (
        let ops = Array.of_list (Hashtbl.find by_key k) in
        Array.sort (fun (a : H.event) b -> compare (a.inv, a.res) (b.inv, b.res)) ops;
        match check_key ~key:k ~initial:(List.mem k initial) ops with
        | Ok () -> loop rest
        | Error _ as e -> e)
  in
  loop (List.sort compare keys)

(* Random histories over 1-4 keys, up to 40 events (so some key often
   has more than 12 ops, past the bit-set memo), invocations in a narrow
   window so that (inv, res) ties are common, optional initial
   membership, and results either legal for a sequential order or
   random. *)
let gen_history =
  let open QCheck.Gen in
  int_range 1 4 >>= fun nkeys ->
  list_size (int_range 0 nkeys) (int_range 1 nkeys) >>= fun initial ->
  bool >>= fun legal ->
  list_size (int_range 1 40)
    (quad (int_bound 3) (int_bound 2) (int_range 1 nkeys) (pair bool (pair (int_bound 4) (int_bound 4))))
  >|= fun evs ->
  let present = Hashtbl.create 8 in
  List.iter (fun k -> Hashtbl.replace present k ()) initial;
  let events =
    List.mapi
      (fun i (tid, kind, key, (coin, (dinv, dres))) ->
        let kind = match kind with 0 -> H.Search | 1 -> H.Insert | _ -> H.Remove in
        let was = Hashtbl.mem present key in
        let result =
          if not legal then coin
          else
            match kind with
            | H.Search -> was
            | H.Insert ->
                Hashtbl.replace present key ();
                not was
            | H.Remove ->
                Hashtbl.remove present key;
                was
        in
        let inv = (2 * i) + dinv in
        { H.tid; kind; key; result; inv; res = inv + dres })
      evs
  in
  (initial, events)

let arb_history =
  QCheck.make gen_history ~print:(fun (initial, events) ->
      Printf.sprintf "initial [%s]: %s"
        (String.concat ";" (List.map string_of_int initial))
        (String.concat "; "
           (List.map
              (fun (e : H.event) ->
                Printf.sprintf "t%d %s k%d->%b @[%d,%d]" e.tid (H.kind_name e.kind) e.key e.result
                  e.inv e.res)
              events)))

let verdict = function Ok () -> "ok" | Error v -> H.pp_violation v

let prop_check_matches_reference =
  QCheck.Test.make ~count:1000 ~name:"check = hash-table reference (verdict and text)" arb_history
    (fun (initial, events) ->
      let h = H.create () in
      List.iter (H.add_initial h) initial;
      List.iter
        (fun (e : H.event) ->
          H.record h ~tid:e.tid ~kind:e.kind ~key:e.key ~result:e.result ~inv:e.inv ~res:e.res)
        events;
      verdict (H.check h) = verdict (ref_check ~initial events))

let suite =
  [
    Alcotest.test_case "accept: racing inserts" `Quick test_accept_racing_inserts;
    Alcotest.test_case "accept: overlapping removes" `Quick test_accept_overlapping_remove_pair;
    Alcotest.test_case "accept: disjoint keys" `Quick test_accept_disjoint_keys;
    Alcotest.test_case "reject: double insert" `Quick test_reject_double_insert;
    Alcotest.test_case "reject: double remove" `Quick test_reject_double_remove;
    Alcotest.test_case "reject: phantom search" `Quick test_reject_phantom_search;
    Alcotest.test_case "reject: stale search" `Quick test_reject_stale_search;
    Alcotest.test_case "reject: real-time order violation" `Quick test_reject_real_time_order;
    Alcotest.test_case "reject: lost update" `Quick test_reject_lost_update;
    Alcotest.test_case "reject: one bad key among good" `Quick test_reject_one_bad_key_among_good;
    Alcotest.test_case "too-large history raises" `Quick test_too_large;
    Alcotest.test_case "62-op history still checked" `Quick test_under_cap_still_checked;
    QCheck_alcotest.to_alcotest prop_check_matches_reference;
  ]
