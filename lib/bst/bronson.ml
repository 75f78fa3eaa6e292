(** Bronson, Casper, Chafi & Olukotun's practical concurrent BST
    (Table 1 "bronson"; PPoPP 2010), partially external variant.

    An internal tree with per-node version numbers and locks, traversed
    optimistically: a reader records a node's version, reads the child
    pointer, and re-checks the version; while a structural {e shrink} is
    in progress the version is odd and readers {b block-wait} (the
    behaviour Table 1 calls out: "a search/parse can block waiting for a
    concurrent update to complete").

    Partially external: deleting a node with two children merely clears
    its value, leaving it as a routing node (no rotation of the key like
    a plain internal tree); routing nodes with at most one child are
    spliced out under locks, bumping the version.  Insertion of an
    existing routing key revives the node in place. *)

module Make (Mem : Ascy_mem.Memory.S) = struct
  module L = Ascy_locks.Ttas.Make (Mem)
  module S = Ascy_ssmem.Ssmem.Make (Mem)
  module E = Ascy_mem.Event

  type 'v node = Nil | Node of 'v info

  and 'v info = {
    key : int;
    line : Mem.line;
    value : 'v option Mem.r; (* None = routing node *)
    version : int Mem.r; (* odd while shrinking *)
    lock : L.t;
    left : 'v node Mem.r;
    right : 'v node Mem.r;
    unlinked : bool Mem.r;
  }

  type 'v t = { root : 'v info; ssmem : S.t }

  let name = "bst-bronson"

  let mk_info key value =
    let line = Mem.new_line () in
    {
      key;
      line;
      value = Mem.make line value;
      version = Mem.make line 0;
      lock = L.create line;
      left = Mem.make line Nil;
      right = Mem.make line Nil;
      unlinked = Mem.make line false;
    }

  (* root sentinel routes everything to its left *)
  let create ?hint:_ ?read_only_fail:_ () =
    { root = mk_info max_int None; ssmem = S.create () }

  let child (n : 'v info) k = if k < n.key then n.left else n.right

  (* Wait until [n]'s version is even (no shrink in flight), return it. *)
  let stable_version (n : 'v info) =
    let rec go () =
      let v = Mem.get n.version in
      if v land 1 = 1 then begin
        Mem.emit E.wait;
        Mem.cpu_relax ();
        go ()
      end
      else v
    in
    go ()

  exception Retry

  (* Optimistic hand-over-hand descent; raises Retry on version change. *)
  let search t k =
    let rec attempt () =
      match
        let rec go (n : 'v info) =
          if n.key = k then (if Mem.get n.unlinked then raise Retry else Mem.get n.value)
          else begin
            let v = stable_version n in
            let c = Mem.get (child n k) in
            if Mem.get n.version <> v then raise Retry;
            match c with
            | Nil ->
                (* validate the miss: the edge must still be current *)
                if Mem.get n.version <> v then raise Retry;
                None
            | Node m ->
                Mem.touch m.line;
                go m
          end
        in
        go t.root
      with
      | r -> r
      | exception Retry ->
          Mem.emit E.restart;
          attempt ()
    in
    attempt ()

  let insert t k v =
    let rec attempt () =
      Mem.emit E.parse;
      match
        let rec go (n : 'v info) =
          if n.key = k then begin
            (* revive or fail on the existing (possibly routing) node *)
            Mem.emit E.parse_end;
            L.acquire n.lock;
            if Mem.get n.unlinked then begin
              L.release n.lock;
              raise Retry
            end
            else begin
              let r =
                match Mem.get n.value with
                | Some _ -> false
                | None ->
                    Mem.set n.value (Some v);
                    true
              in
              L.release n.lock;
              r
            end
          end
          else begin
            let ver = stable_version n in
            match Mem.get (child n k) with
            | Node m ->
                if Mem.get n.version <> ver then raise Retry;
                Mem.touch m.line;
                go m
            | Nil ->
                Mem.emit E.parse_end;
                L.acquire n.lock;
                if Mem.get n.unlinked || Mem.get (child n k) <> Nil then begin
                  L.release n.lock;
                  raise Retry
                end
                else begin
                  Mem.set (child n k) (Node (mk_info k (Some v)));
                  L.release n.lock;
                  true
                end
          end
        in
        go t.root
      with
      | r -> r
      | exception Retry ->
          Mem.emit E.restart;
          attempt ()
    in
    attempt ()

  (* Splice a routing node with <= 1 child out of the tree: lock parent
     and node, mark the node shrinking (odd version), redirect, publish. *)
  let try_unlink t (p : 'v info) (n : 'v info) =
    L.acquire p.lock;
    L.acquire n.lock;
    let ok =
      (not (Mem.get p.unlinked))
      && (not (Mem.get n.unlinked))
      && Mem.get n.value = None
      &&
      let cell = child p n.key in
      match Mem.get cell with
      | Node m when m == n -> (
          match (Mem.get n.left, Mem.get n.right) with
          | Nil, only | only, Nil ->
              let v = Mem.get n.version in
              Mem.set n.version (v + 1) (* shrinking: readers at n wait *);
              Mem.set cell only;
              Mem.set n.unlinked true;
              Mem.set n.version (v + 2);
              true
          | Node _, Node _ -> false)
      | _ -> false
    in
    L.release n.lock;
    L.release p.lock;
    if ok then S.free t.ssmem n;
    ok

  let remove t k =
    let rec attempt () =
      Mem.emit E.parse;
      match
        let rec go (p : 'v info) (n : 'v info) =
          if n.key = k then begin
            Mem.emit E.parse_end;
            L.acquire n.lock;
            if Mem.get n.unlinked then begin
              L.release n.lock;
              raise Retry
            end
            else begin
              match Mem.get n.value with
              | None ->
                  L.release n.lock;
                  false
              | Some _ ->
                  Mem.set n.value None;
                  L.release n.lock;
                  (* opportunistically splice if it became a <=1-child
                     routing node *)
                  (match (Mem.get n.left, Mem.get n.right) with
                  | Node _, Node _ -> ()
                  | _ -> ignore (try_unlink t p n));
                  true
            end
          end
          else begin
            let ver = stable_version n in
            match Mem.get (child n k) with
            | Node m ->
                if Mem.get n.version <> ver then raise Retry;
                Mem.touch m.line;
                go n m
            | Nil ->
                if Mem.get n.version <> ver then raise Retry;
                false
          end
        in
        go t.root t.root
      with
      | r -> r
      | exception Retry ->
          Mem.emit E.restart;
          attempt ()
    in
    attempt ()

  let size t =
    let rec go = function
      | Nil -> 0
      | Node n ->
          (if Mem.get n.value = None then 0 else 1) + go (Mem.get n.left) + go (Mem.get n.right)
    in
    go (Mem.get t.root.left)

  let validate t =
    let rec go nd lo hi =
      match nd with
      | Nil -> Ok ()
      | Node n ->
          if n.key <= lo || n.key >= hi then Error "BST order violated"
          else (
            match go (Mem.get n.left) lo n.key with
            | Error _ as e -> e
            | Ok () -> go (Mem.get n.right) n.key hi)
    in
    go (Mem.get t.root.left) min_int max_int

  let op_done t = S.quiesce t.ssmem
end
