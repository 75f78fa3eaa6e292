(** CLHT-LB: the cache-line hash table, lock-based variant (paper §6.1 —
    one of the two algorithms designed from scratch with ASCY).

    Every bucket occupies a {e single cache line} holding the concurrency
    word (a lock), three key/value pairs and a next pointer, so operations
    complete with at most one cache-line transfer.  Updates are in-place:
    no node allocation, no per-node garbage collection.  Searches acquire
    an atomic snapshot of a key/value pair (read value, re-check key and
    value) instead of locking.  Updates first search the bucket, so
    unsuccessful updates are read-only (ASCY3 by construction).

    In the simulator, placing the whole bucket on one modeled line
    reproduces the single-transfer behaviour exactly; natively the slots
    are separate [Atomic.t] cells (OCaml exposes no cache-line control)
    but the algorithm is unchanged. *)

(** Use HTM-style lock elision in updates.  Read at [create]; only
    effective where the memory layer provides transactions, i.e. the
    simulator ([bench/exp_htm.ml] turns it on). *)
let htm = ref false

module Make (Mem : Ascy_mem.Memory.S) = struct
  module L = Ascy_locks.Ttas.Make (Mem)
  module E = Ascy_mem.Event

  let entries = 3
  let empty_key = min_int

  type 'v bucket = {
    line : Mem.line;
    lock : L.t;
    keys : int Mem.r array;
    vals : 'v option Mem.r array;
    next : 'v bucket option Mem.r;
  }

  type 'v table = { buckets : 'v bucket array; mask : int; expands : int Mem.r }

  type 'v t = { tbl : 'v table Mem.r; resize_lock : L.t; htm : bool }

  let name = "ht-clht-lb"

  let mk_bucket () =
    let line = Mem.new_line () in
    {
      line;
      lock = L.create line;
      keys = Array.init entries (fun _ -> Mem.make line empty_key);
      vals = Array.init entries (fun _ -> Mem.make line None);
      next = Mem.make line None;
    }

  let mk_table n =
    { buckets = Array.init n (fun _ -> mk_bucket ()); mask = n - 1; expands = Mem.make_fresh 0 }

  let create ?hint ?read_only_fail:_ () =
    let n = Hash.buckets hint in
    {
      tbl = Mem.make_fresh (mk_table n);
      resize_lock = L.create_fresh ();
      htm = !htm;
    }

  (* Atomic snapshot of slot [i]: read the value, then re-check that the
     key still matches and the value is unchanged. *)
  let snapshot b i k =
    let v = Mem.get b.vals.(i) in
    match v with
    | Some _ when Mem.get b.keys.(i) = k && Mem.get b.vals.(i) == v -> v
    | _ -> None

  let search t k =
    let tbl = Mem.get t.tbl in
    let rec scan b =
      Mem.touch b.line;
      let rec slot i =
        if i = entries then match Mem.get b.next with Some nb -> scan nb | None -> None
        else if Mem.get b.keys.(i) = k then
          match snapshot b i k with Some _ as r -> r | None -> slot (i + 1)
        else slot (i + 1)
      in
      slot 0
    in
    scan tbl.buckets.(Hash.bucket k tbl.mask)

  (* Lock the head bucket for [k], revalidating against resizes. *)
  let rec lock_head t k =
    let tbl = Mem.get t.tbl in
    let b = tbl.buckets.(Hash.bucket k tbl.mask) in
    L.acquire b.lock;
    if Mem.get t.tbl == tbl then (tbl, b)
    else begin
      L.release b.lock;
      Mem.emit E.restart;
      lock_head t k
    end

  (* Under the head lock: find the slot holding [k], or an empty slot. *)
  let chain_scan b k =
    let rec go b empty pos =
      let rec slot i =
        if i = entries then `Next
        else if Mem.get b.keys.(i) = k then `Found (b, i)
        else slot (i + 1)
      in
      match slot 0 with
      | `Found (b, i) -> `Found (b, i)
      | `Next -> (
          let empty =
            match empty with
            | Some _ -> empty
            | None ->
                let rec free_slot i =
                  if i = entries then None
                  else if Mem.get b.keys.(i) = empty_key then Some (b, i)
                  else free_slot (i + 1)
                in
                free_slot 0
          in
          match Mem.get b.next with
          | Some nb -> go nb empty (pos + 1)
          | None -> `Empty (empty, b, pos))
    in
    go b None 0

  (* Grow the table 2x: freeze all writers (every head lock), migrate,
     publish. *)
  let resize t =
    if L.try_acquire t.resize_lock then begin
      let old = Mem.get t.tbl in
      Array.iter (fun b -> L.acquire b.lock) old.buckets;
      let fresh = mk_table (2 * (old.mask + 1)) in
      let insert_fresh k v =
        let rec go b =
          let rec slot i =
            if i = entries then
              match Mem.get b.next with
              | Some nb -> go nb
              | None ->
                  let nb = mk_bucket () in
                  Mem.set nb.vals.(0) v;
                  Mem.set nb.keys.(0) k;
                  Mem.set b.next (Some nb)
            else if Mem.get b.keys.(i) = empty_key then begin
              Mem.set b.vals.(i) v;
              Mem.set b.keys.(i) k
            end
            else slot (i + 1)
          in
          slot 0
        in
        go fresh.buckets.(Hash.bucket k fresh.mask)
      in
      Array.iter
        (fun b ->
          let rec walk b =
            for i = 0 to entries - 1 do
              let k = Mem.get b.keys.(i) in
              if k <> empty_key then insert_fresh k (Mem.get b.vals.(i))
            done;
            match Mem.get b.next with Some nb -> walk nb | None -> ()
          in
          walk b)
        old.buckets;
      Mem.set t.tbl fresh;
      Array.iter (fun b -> L.release b.lock) old.buckets;
      L.release t.resize_lock
    end

  (* HTM-style elision (paper 4, "hardware considerations"): attempt the
     update as a best-effort transaction that reads the bucket lock
     (elision: abort-by-conflict if someone locks it) and performs the
     in-place update without acquiring it; fall back to the lock path on
     abort or when the fast path does not apply. *)
  let txn_insert t k v =
    Mem.txn (fun () ->
        let tbl = Mem.get t.tbl in
        let b = tbl.buckets.(Hash.bucket k tbl.mask) in
        if L.is_locked b.lock then `Fallback
        else
          match chain_scan b k with
          | `Found _ -> `Done false
          | `Empty (Some (eb, i), _, _) ->
              Mem.set eb.vals.(i) (Some v);
              Mem.set eb.keys.(i) k;
              `Done true
          | `Empty (None, _, _) -> `Fallback (* bucket append: take the lock *))

  let txn_remove t k =
    Mem.txn (fun () ->
        let tbl = Mem.get t.tbl in
        let b = tbl.buckets.(Hash.bucket k tbl.mask) in
        if L.is_locked b.lock then `Fallback
        else
          match chain_scan b k with
          | `Found (fb, i) ->
              Mem.set fb.keys.(i) empty_key;
              Mem.set fb.vals.(i) None;
              `Done true
          | `Empty _ -> `Done false)

  let insert t k v =
    Mem.emit E.parse;
    let doomed = search t k <> None in
    Mem.emit E.parse_end;
    if doomed then false (* ASCY3: read-only when doomed *)
    else begin
      let locked_path () =
        let _tbl, head = lock_head t k in
        match chain_scan head k with
        | `Found _ ->
            L.release head.lock;
            false
        | `Empty (Some (b, i), _, _) ->
            (* in-place publication: value first, then the key *)
            Mem.set b.vals.(i) (Some v);
            Mem.set b.keys.(i) k;
            L.release head.lock;
            true
        | `Empty (None, last, pos) ->
            let nb = mk_bucket () in
            Mem.set nb.vals.(0) (Some v);
            Mem.set nb.keys.(0) k;
            Mem.set last.next (Some nb);
            L.release head.lock;
            (* resize once a meaningful fraction of buckets has chained
               (the C CLHT's expansion counter), not on any long chain *)
            ignore pos;
            let tbl = Mem.get t.tbl in
            let e = Mem.fetch_and_add tbl.expands 1 in
            if e > (tbl.mask + 1) / 8 then resize t;
            true
      in
      if t.htm then
        match txn_insert t k v with
        | Some (`Done r) -> r
        | Some `Fallback | None -> locked_path ()
      else locked_path ()
    end

  let remove t k =
    Mem.emit E.parse;
    let doomed = search t k = None in
    Mem.emit E.parse_end;
    if doomed then false (* ASCY3 *)
    else begin
      let locked_path () =
        let _tbl, head = lock_head t k in
        match chain_scan head k with
        | `Found (b, i) ->
            (* key first so no reader can snapshot a half-dead slot *)
            Mem.set b.keys.(i) empty_key;
            Mem.set b.vals.(i) None;
            L.release head.lock;
            true
        | `Empty _ ->
            L.release head.lock;
            false
      in
      if t.htm then
        match txn_remove t k with
        | Some (`Done r) -> r
        | Some `Fallback | None -> locked_path ()
      else locked_path ()
    end

  let fold t f acc =
    let tbl = Mem.get t.tbl in
    Array.fold_left
      (fun acc b ->
        let rec walk b acc =
          let acc = ref acc in
          for i = 0 to entries - 1 do
            let k = Mem.get b.keys.(i) in
            if k <> empty_key then acc := f !acc k
          done;
          match Mem.get b.next with Some nb -> walk nb !acc | None -> !acc
        in
        walk b acc)
      acc tbl.buckets

  let size t = fold t (fun acc _ -> acc + 1) 0

  let validate t =
    let seen = Hashtbl.create 64 in
    let tbl = Mem.get t.tbl in
    let ok = ref (Ok ()) in
    Array.iteri
      (fun idx b ->
        let rec walk b =
          for i = 0 to entries - 1 do
            let k = Mem.get b.keys.(i) in
            if k <> empty_key then begin
              if Hashtbl.mem seen k then ok := Error "duplicate key";
              Hashtbl.replace seen k ();
              if Hash.bucket k tbl.mask <> idx then ok := Error "key in wrong bucket";
              if Mem.get b.vals.(i) = None then ok := Error "live key with no value"
            end
          done;
          match Mem.get b.next with Some nb -> walk nb | None -> ()
        in
        walk b)
      tbl.buckets;
    !ok

  let op_done _ = ()
end
