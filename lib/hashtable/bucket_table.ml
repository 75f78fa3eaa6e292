(** Hash table as a fixed array of per-bucket list sets.

    This is how the paper builds its [coupling], [pugh], [lazy], [copy]
    and [harris] hash tables: "uses one <list> per bucket" (Table 1), each
    bucket protected by whatever synchronization the list itself uses.
    The table inherits the ASCY compliance of its bucket list. *)

module Make (Mem : Ascy_mem.Memory.S) (L : Ascy_core.Set_intf.SET) = struct
  type 'v t = { buckets : 'v L.t array; mask : int; rr : int array }

  let name =
    let base = L.name in
    let base =
      if String.length base > 3 && String.sub base 0 3 = "ll-" then
        String.sub base 3 (String.length base - 3)
      else base
    in
    "ht-" ^ base

  let create ?hint ?read_only_fail () =
    let n = Hash.buckets hint in
    {
      buckets = Array.init n (fun _ -> L.create ?read_only_fail ());
      mask = n - 1;
      rr = Array.make (Mem.max_threads ()) 0;
    }

  let bucket t k = t.buckets.(Hash.bucket k t.mask)

  let search t k = L.search (bucket t k) k
  let insert t k v = L.insert (bucket t k) k v
  let remove t k = L.remove (bucket t k) k
  let size t = Array.fold_left (fun acc b -> acc + L.size b) 0 t.buckets

  let validate t =
    Array.fold_left
      (fun acc b -> match acc with Error _ -> acc | Ok () -> L.validate b)
      (Ok ()) t.buckets

  (* Each bucket list owns its reclamation state; tick them round-robin so
     every bucket's epochs keep advancing at O(1) cost per operation. *)
  let op_done t =
    let me = Mem.self () in
    let i = t.rr.(me) in
    t.rr.(me) <- (i + 1) land t.mask;
    L.op_done t.buckets.(i)
end
