(** The content-addressed function-level artifact store.

    Maps the full provenance of a lowered function — optimized-IR digest
    × pipeline description × object {!Objfile.format_version} — to its
    relocatable object, so rebuilding a program (or a 1,000-variant
    population) re-runs isel/liveness/regalloc/emit only for functions
    whose key actually changed; everything else is a store hit and the
    build reduces to NOP insertion plus relink.  Lowering is
    diversification-independent, so every config shares one artifact per
    function.

    Process-wide and bounded: a {!Memo} of {!capacity} entries that
    evicts the least-recently-used one.  Every lookup lands in
    {!Metrics} as [obj.store.hit] or [obj.store.miss], every eviction as
    [obj.store.evict] (the incremental bench and the CI rebuild smoke
    assert on them). *)

val capacity : int
(** The store's default bound, 8192 entries. *)

val objects : (string, Objfile.func_obj) Memo.t

val key : ir_digest:string -> pipeline:string -> string
(** The store key; folds in {!Objfile.format_version} so a format bump
    invalidates rather than resurrects. *)
