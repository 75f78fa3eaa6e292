(** CLHT-LF: the lock-free cache-line hash table (paper §6.1).

    The concurrency word of each bucket is a [snapshot_t]: a version
    number plus a small map of per-slot states (invalid / valid /
    inserting), manipulated with CAS on the whole word.  In-place updates:

    - {b remove} is a single CAS that flips the slot's state from valid to
      invalid against the exact snapshot observed — one cache-line
      transfer, nothing else;
    - {b insert} claims an invalid slot (CAS to inserting), writes the
      key/value into the slot it now owns, re-scans the bucket chain for
      a concurrent duplicate, then publishes with a CAS to valid.  If the
      scan finds the key valid elsewhere the claim is rolled back and the
      insert fails; if it finds a concurrent {e inserting} duplicate the
      racer {e help-aborts} it (CAS the peer's slot back to invalid) and
      rescans (at least one of any racing pair is guaranteed to see the
      other, because each writes its key before scanning).  Help-abort
      rather than symmetric self-rollback matters for crash tolerance: a
      thread that dies between claiming a slot and publishing leaves an
      [inserting] claim behind forever, and deferring to it would turn a
      lock-free insert into a blocking one.  The flip side is that a
      commit must verify its own claim is still [inserting] — a racer may
      have aborted it — so both commit and rollback go through the
      guarded {!resolve}, never a blind state overwrite.

    Searches are snapshot-based and store-free (ASCY1); failed updates
    are read-only (ASCY3). *)

module Make (Mem : Ascy_mem.Memory.S) = struct
  module B = Ascy_locks.Backoff.Make (Mem)
  module E = Ascy_mem.Event

  let entries = 3
  let empty_key = min_int

  (* snapshot_t: low 2*entries bits = per-slot states, rest = version *)
  let st_invalid = 0
  let st_valid = 1
  let st_inserting = 2
  let map_bits = 2 * entries
  let map_mask = (1 lsl map_bits) - 1

  let state_of s i = (s lsr (2 * i)) land 3

  (* new word with slot [i] set to [st] and the version bumped *)
  let with_state s i st =
    let m = s land map_mask in
    let m = m land lnot (3 lsl (2 * i)) lor (st lsl (2 * i)) in
    (((s lsr map_bits) + 1) lsl map_bits) lor m

  type 'v bucket = {
    line : Mem.line;
    snap : int Mem.r;
    keys : int Mem.r array;
    vals : 'v option Mem.r array;
    next : 'v bucket option Mem.r;
  }

  type 'v t = { buckets : 'v bucket array; mask : int }

  let name = "ht-clht-lf"

  let mk_bucket () =
    let line = Mem.new_line () in
    {
      line;
      snap = Mem.make line 0;
      keys = Array.init entries (fun _ -> Mem.make line empty_key);
      vals = Array.init entries (fun _ -> Mem.make line None);
      next = Mem.make line None;
    }

  let create ?hint ?read_only_fail:_ () =
    let n = Hash.buckets hint in
    { buckets = Array.init n (fun _ -> mk_bucket ()); mask = n - 1 }

  let head t k = t.buckets.(Hash.bucket k t.mask)

  let search t k =
    let rec scan b =
      Mem.touch b.line;
      let rec slot i =
        if i = entries then match Mem.get b.next with Some nb -> scan nb | None -> None
        else begin
          let s = Mem.get b.snap in
          if state_of s i = st_valid && Mem.get b.keys.(i) = k then begin
            let v = Mem.get b.vals.(i) in
            (* version check makes the key/value read atomic *)
            if Mem.get b.snap = s then v else slot i
          end
          else slot (i + 1)
        end
      in
      slot 0
    in
    scan (head t k)

  (* Move slot [i] of [b] from [st_inserting] to [st].  Guarded, never
     blind: the claim may have been help-aborted by a racing inserter (it
     is not ours any more) or may belong to a racer we are aborting and
     that just committed — in both cases overwriting the state would
     corrupt the bucket.  Returns [false] iff the slot is no longer
     [st_inserting]; CAS failures on unrelated bits retry. *)
  let rec resolve b i st =
    let s = Mem.get b.snap in
    if state_of s i <> st_inserting then false
    else if Mem.cas b.snap s (with_state s i st) then true
    else begin
      Mem.emit E.cas_fail;
      resolve b i st
    end

  (* Claim an invalid slot anywhere in the chain (appending a bucket when
     full); returns (bucket, slot, chain_position). *)
  let rec claim b pos =
    let rec slot i =
      if i = entries then `Full
      else begin
        let s = Mem.get b.snap in
        if state_of s i = st_invalid then
          if Mem.cas b.snap s (with_state s i st_inserting) then `Claimed i
          else begin
            Mem.emit E.cas_fail;
            slot i (* re-read and retry this bucket *)
          end
        else slot (i + 1)
      end
    in
    match slot 0 with
    | `Claimed i -> (b, i, pos)
    | `Full -> (
        match Mem.get b.next with
        | Some nb -> claim nb (pos + 1)
        | None ->
            let nb = mk_bucket () in
            (* pre-claim slot 0 of the fresh bucket *)
            Mem.set nb.snap (with_state 0 0 st_inserting);
            if Mem.cas b.next None (Some nb) then (nb, 0, pos + 1)
            else begin
              Mem.emit E.cas_fail;
              match Mem.get b.next with
              | Some nb' -> claim nb' (pos + 1)
              | None -> claim b pos
            end)

  (* Scan the chain for another slot holding [k]; [mine] identifies our
     claimed slot.  Detects both committed duplicates and races. *)
  let conflict t k ~mine =
    let my_b, my_i = mine in
    let rec scan b =
      let rec slot i =
        if i = entries then
          match Mem.get b.next with Some nb -> scan nb | None -> `None
        else if b == my_b && i = my_i then slot (i + 1)
        else begin
          let s = Mem.get b.snap in
          let st = state_of s i in
          if (st = st_valid || st = st_inserting) && Mem.get b.keys.(i) = k then
            if st = st_valid then `Valid
            else `Racing (b, i)
          else slot (i + 1)
        end
      in
      match slot 0 with `None -> `None | r -> r
    in
    scan (head t k)

  let insert t k v =
    Mem.emit E.parse;
    let doomed = search t k <> None in
    Mem.emit E.parse_end;
    if doomed then false (* ASCY3 *)
    else begin
      let bo = B.create () in
      let rec attempt () =
        let b, i, _pos = claim (head t k) 0 in
        (* we own the slot: publish value then key, then scan, then commit *)
        Mem.set b.vals.(i) (Some v);
        Mem.set b.keys.(i) k;
        let rec settle () =
          match conflict t k ~mine:(b, i) with
          | `None ->
              if resolve b i st_valid then true
              else begin
                (* a racer help-aborted our claim before we committed:
                   the slot is theirs to recycle now, start over *)
                Mem.emit E.restart;
                B.once bo;
                attempt ()
              end
          | `Valid ->
              ignore (resolve b i st_invalid);
              false
          | `Racing (ob, oi) ->
              (* help-abort the racing claim instead of deferring to it:
                 its owner may be crash-stopped mid-insert, and waiting
                 on (or symmetric-rollback racing with) a corpse would
                 block forever.  If the CAS finds the slot no longer
                 inserting the racer resolved itself; rescan either way. *)
              ignore (resolve ob oi st_invalid);
              Mem.emit E.restart;
              settle ()
        in
        settle ()
      in
      attempt ()
    end

  let remove t k =
    Mem.emit E.parse;
    let rec scan b =
      let rec slot i =
        if i = entries then
          match Mem.get b.next with Some nb -> scan nb | None -> false
        else begin
          let s = Mem.get b.snap in
          if state_of s i = st_valid && Mem.get b.keys.(i) = k then begin
            Mem.emit E.parse_end;
            (* single-CAS removal against the exact observed snapshot *)
            if Mem.cas b.snap s (with_state s i st_invalid) then true
            else begin
              Mem.emit E.cas_fail;
              Mem.emit E.parse;
              scan (head t k) (* something moved: rescan the chain *)
            end
          end
          else slot (i + 1)
        end
      in
      slot 0
    in
    scan (head t k)

  let fold t f acc =
    Array.fold_left
      (fun acc b ->
        let rec walk b acc =
          let acc = ref acc in
          let s = Mem.get b.snap in
          for i = 0 to entries - 1 do
            if state_of s i = st_valid then acc := f !acc (Mem.get b.keys.(i))
          done;
          match Mem.get b.next with Some nb -> walk nb !acc | None -> !acc
        in
        walk b acc)
      acc t.buckets

  let size t = fold t (fun acc _ -> acc + 1) 0

  let validate t =
    let seen = Hashtbl.create 64 in
    let ok = ref (Ok ()) in
    Array.iteri
      (fun idx b ->
        let rec walk b =
          let s = Mem.get b.snap in
          for i = 0 to entries - 1 do
            if state_of s i = st_valid then begin
              let k = Mem.get b.keys.(i) in
              if Hashtbl.mem seen k then ok := Error "duplicate valid key";
              Hashtbl.replace seen k ();
              if Hash.bucket k t.mask <> idx then ok := Error "key in wrong bucket"
            end
          done;
          match Mem.get b.next with Some nb -> walk nb | None -> ()
        in
        walk b)
      t.buckets;
    !ok

  let op_done _ = ()
end
