(** Fraser's skip list re-engineered with ASCY1-2 (paper §5,
    "fraser-opt", based on Herlihy-Lev-Shavit's wait-free contains).

    - The {b search} is a pure traversal: marked nodes are skipped in
      place, nothing is written, nothing restarts (ASCY1).
    - The {b parse} of an update unlinks marked nodes it passes, but a
      failed clean-up CAS only re-reads locally and continues; the parse
      never restarts from the head (ASCY2).  Stale predecessors are
      caught by the final modification CAS, which alone retries.

    The paper measures this re-engineering at up to 8% better throughput
    than fraser with an order-of-magnitude fewer extra parses (§5,
    ASCY2 discussion). *)

module Make (Mem : Ascy_mem.Memory.S) = struct
  module S = Ascy_ssmem.Ssmem.Make (Mem)
  module Lg = Level_gen.Make (Mem)
  module E = Ascy_mem.Event
  module T = Tower.Make (Mem)
  open T

  type 'v t = { head : 'v info; levels : Lg.t; ssmem : S.t }

  let name = "sl-fraser-opt"

  let create ?hint ?read_only_fail:_ () =
    let max_level = Lg.max_for_hint (Option.value hint ~default:1024) in
    {
      head = mk_info min_int None max_level;
      levels = Lg.create max_level;
      ssmem = S.create ();
    }

  let height t = Array.length t.head.nexts

  (* ASCY1 search: no stores, no waiting, no restarts. *)
  let search t k =
    let rec level anchor lvl =
      if lvl < 0 then None
      else begin
        let rec walk anchor (l : 'v link) =
          match l.succ with
          | Nil -> level anchor (lvl - 1)
          | Node n ->
              Mem.touch n.line;
              let nl = Mem.get n.nexts.(lvl) in
              if nl.mark then walk anchor nl (* skip logically deleted *)
              else if n.key < k then walk n nl
              else if lvl = 0 then (if n.key = k then n.value else None)
              else level anchor (lvl - 1)
        in
        walk anchor (Mem.get anchor.nexts.(lvl))
      end
    in
    level t.head (height t - 1)

  (* ASCY2 parse: clean up opportunistically, never restart.
     [quiet] suppresses the parse event for post-update clean-up passes,
     which are not parses of an update. *)
  let parse ?(quiet = false) t k preds plinks succs =
    if not quiet then Mem.emit E.parse;
    let rec level anchor lvl =
      if lvl >= 0 then begin
        let rec walk pred (l : 'v link) =
          match l.succ with
          | Nil ->
              preds.(lvl) <- pred;
              plinks.(lvl) <- l;
              succs.(lvl) <- Nil;
              level pred (lvl - 1)
          | Node n ->
              Mem.touch n.line;
              let nl = Mem.get n.nexts.(lvl) in
              if nl.mark then begin
                if l.mark then walk pred nl (* stale pred: read through *)
                else begin
                  let repl = { mark = false; succ = nl.succ } in
                  if Mem.cas pred.nexts.(lvl) l repl then begin
                    Mem.emit E.cleanup;
                    if lvl = 0 then S.free t.ssmem n;
                    walk pred repl
                  end
                  else begin
                    (* local re-read; no restart *)
                    Mem.emit E.cas_fail;
                    walk pred (Mem.get pred.nexts.(lvl))
                  end
                end
              end
              else if n.key < k then walk n nl
              else begin
                preds.(lvl) <- pred;
                plinks.(lvl) <- l;
                succs.(lvl) <- Node n;
                level pred (lvl - 1)
              end
        in
        walk anchor (Mem.get anchor.nexts.(lvl))
      end
    in
    level t.head (height t - 1)

  let mk_arrays t =
    ( Array.make (height t) t.head,
      Array.make (height t) { mark = false; succ = Nil },
      Array.make (height t) Nil )

  let insert t k v =
    let preds, plinks, succs = mk_arrays t in
    let rec attempt () =
      parse t k preds plinks succs;
      Mem.emit E.parse_end;
      match succs.(0) with
      | Node n when n.key = k -> false (* ASCY3: read-only failure *)
      | _ ->
          let h = Lg.next t.levels in
          let node = mk_info k (Some v) h in
          for lvl = 0 to h - 1 do
            Mem.set node.nexts.(lvl) { mark = false; succ = succs.(lvl) }
          done;
          if
            plinks.(0).mark
            || not (Mem.cas preds.(0).nexts.(0) plinks.(0) { mark = false; succ = Node node })
          then begin
            Mem.emit E.cas_fail;
            attempt ()
          end
          else begin
            let rec link lvl =
              if lvl < h then begin
                let cur = Mem.get node.nexts.(lvl) in
                if cur.mark then ()
                else if (match succs.(lvl) with Node s -> s == node | Nil -> false) then
                  link (lvl + 1)
                else begin
                  if cur.succ != succs.(lvl) then
                    ignore (Mem.cas node.nexts.(lvl) cur { mark = false; succ = succs.(lvl) });
                  let cur = Mem.get node.nexts.(lvl) in
                  if cur.mark then ()
                  else if
                    (not plinks.(lvl).mark)
                    && Mem.cas preds.(lvl).nexts.(lvl) plinks.(lvl)
                         { mark = false; succ = Node node }
                  then link (lvl + 1)
                  else begin
                    Mem.emit E.cas_fail;
                    parse t k preds plinks succs;
                    Mem.emit E.parse_end;
                    link lvl
                  end
                end
              end
            in
            link 1;
            true
          end
    in
    attempt ()

  let remove t k =
    let preds, plinks, succs = mk_arrays t in
    parse t k preds plinks succs;
    Mem.emit E.parse_end;
    match succs.(0) with
    | Node n when n.key = k ->
        let h = Array.length n.nexts in
        for lvl = h - 1 downto 1 do
          let rec mark () =
            let l = Mem.get n.nexts.(lvl) in
            if not l.mark then
              if not (Mem.cas n.nexts.(lvl) l { mark = true; succ = l.succ }) then begin
                Mem.emit E.cas_fail;
                mark ()
              end
          in
          mark ()
        done;
        let rec mark0 () =
          let l = Mem.get n.nexts.(0) in
          if l.mark then false
          else if Mem.cas n.nexts.(0) l { mark = true; succ = l.succ } then true
          else begin
            Mem.emit E.cas_fail;
            mark0 ()
          end
        in
        if mark0 () then begin
          (* one opportunistic clean-up pass; no retries *)
          parse ~quiet:true t k preds plinks succs;
          true
        end
        else false (* a concurrent remove won: read-only failure (ASCY3) *)
    | _ -> false

  let size t = size_of t.head
  let validate t = validate_of t.head
  let op_done t = S.quiesce t.ssmem
end
