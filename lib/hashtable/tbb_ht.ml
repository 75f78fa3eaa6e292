(** Reader-writer-locked hash table in the style of Intel TBB's
    [concurrent_hash_map] (Table 1 "tbb").

    Fully lock-based: even searches acquire the bucket's reader-writer
    lock, so every operation stores to shared memory — the design whose
    poor portable scalability Figure 2 documents (it collapses entirely
    on the T4-4).  Buckets are sorted mutable lists.

    Deviation: TBB rehashes lazily by segments; we keep a fixed bucket
    array (chains grow).  The synchronization pattern — the property under
    study — is preserved. *)

module Make (Mem : Ascy_mem.Memory.S) = struct
  module Rw = Ascy_locks.Rw_lock.Make (Mem)
  module E = Ascy_mem.Event

  type 'v node = Nil | Node of 'v info
  and 'v info = { key : int; value : 'v; line : Mem.line; next : 'v node Mem.r }

  type 'v bucket = { lock : Rw.t; head : 'v node Mem.r }

  type 'v t = { buckets : 'v bucket array; mask : int }

  let name = "ht-tbb"

  let create ?hint ?read_only_fail:_ () =
    let n = Hash.buckets hint in
    {
      buckets =
        Array.init n (fun _ ->
            let line = Mem.new_line () in
            { lock = Rw.create line; head = Mem.make line Nil });
      mask = n - 1;
    }

  let bucket t k = t.buckets.(Hash.bucket k t.mask)

  (* cell whose contents is the first node with key >= k *)
  let locate b k =
    let rec go cell =
      match Mem.get cell with
      | Nil -> (cell, Nil)
      | Node n as nd ->
          Mem.touch n.line;
          if n.key < k then go n.next else (cell, nd)
    in
    go b.head

  let search t k =
    let b = bucket t k in
    Rw.read_acquire b.lock;
    let res = match locate b k with _, Node n when n.key = k -> Some n.value | _ -> None in
    Rw.read_release b.lock;
    res

  let insert t k v =
    let b = bucket t k in
    Mem.emit E.parse;
    Rw.write_acquire b.lock;
    let cell, succ = locate b k in
    Mem.emit E.parse_end;
    let ok =
      match succ with
      | Node n when n.key = k -> false
      | _ ->
          let line = Mem.new_line () in
          Mem.set cell (Node { key = k; value = v; line; next = Mem.make line succ });
          true
    in
    Rw.write_release b.lock;
    ok

  let remove t k =
    let b = bucket t k in
    Mem.emit E.parse;
    Rw.write_acquire b.lock;
    let loc = locate b k in
    Mem.emit E.parse_end;
    let ok =
      match loc with
      | cell, Node n when n.key = k ->
          Mem.set cell (Mem.get n.next);
          true
      | _ -> false
    in
    Rw.write_release b.lock;
    ok

  let size t =
    Array.fold_left
      (fun acc b ->
        let rec go cell acc =
          match Mem.get cell with Nil -> acc | Node n -> go n.next (acc + 1)
        in
        go b.head acc)
      0 t.buckets

  let validate t =
    let ok = ref (Ok ()) in
    Array.iteri
      (fun i b ->
        let rec go cell last =
          match Mem.get cell with
          | Nil -> ()
          | Node n ->
              if n.key <= last then ok := Error "bucket keys not increasing";
              if Hash.bucket n.key t.mask <> i then ok := Error "key in wrong bucket";
              go n.next n.key
        in
        go b.head min_int)
      t.buckets;
    !ok

  let op_done _ = ()
end
