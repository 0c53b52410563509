(** Versioned, length-prefixed binary wire format for Algorithm 1
    clusters.

    Two layers:

    - an {e untyped framing layer} ({!encode_frame}/{!decode_frame}): every
      frame is [magic "TB" | version | kind | payload length (u32 BE) |
      CRC-32 | payload].  The CRC (IEEE 802.3, over version, kind, length
      and payload) makes corruption — truncation aside — a detected error:
      any single bit flip in the covered region is caught by construction,
      and a flip in the magic or a truncating flip in the length field
      surfaces as {!Corrupt} or {!Need_more}.  Decoding {e never raises}:
      a stream reader can feed arbitrary bytes and always gets a
      three-valued verdict.
    - a {e typed message layer} ({!Make}): the Algorithm 1 / client
      protocol messages, generic over a per-object (de)serialiser
      ({!OBJ_CODEC}; the registered objects live in {!Wire}).  Payloads
      use zigzag-varint integers and length-prefixed strings; a malformed
      payload inside a well-framed frame decodes to {!Corrupt}, not an
      exception.

    The wire protocol (who sends which message) is documented in
    [Tcp_transport] and README "Wire format". *)

val version : int
(** Current wire version (7 — v2 added the trace id to [Entry]/[Invoke]
    payloads; v3 added the client operation id to both, plus the
    catch-up request/reply frames for post-crash peer anti-entropy; v4
    added the shard id to every op/ack/catch-up payload and the shard
    count to the handshake, so a sharded namespace multiplexes many
    Algorithm 1 instances over one per-peer link; v5 added the quorum
    fallback's frames — the heartbeat doubling as the mode announcement
    plus forward/propose/ack/commit/nack/fill, all shard-tagged; v6
    added the clock-synchronization probe frames [Ping]/[Pong]; v7 added
    overload protection — the client deadline on [Invoke], the [Shed]
    refusal frame, and the two-lane queue counters on [Stats]).  A
    decoder rejects every other version, so incompatible formats — older
    peers included — fail the handshake cleanly instead of misparsing. *)

val header_len : int
val max_payload : int

type frame = { kind : int; payload : string }

type 'a progress =
  | Got of 'a * int  (** decoded value, offset of the next byte to read *)
  | Need_more of int  (** how many more bytes (at least) must arrive *)
  | Corrupt of string

val encode_frame : kind:int -> payload:string -> string
(** @raise Invalid_argument if [kind] is not a byte or the payload exceeds
    {!max_payload}. *)

val decode_frame : ?pos:int -> string -> frame progress
(** Decode one frame starting at [pos] (default 0).  Total function: bad
    magic, bad version, oversized length and checksum mismatch are
    {!Corrupt}; an incomplete frame is {!Need_more}. *)

val crc32 : string -> pos:int -> len:int -> int
(** IEEE CRC-32 of a substring (exposed for tests). *)

(** {2 Payload primitives} *)

exception Bad_payload of string
(** Raised by {!Rd} accessors and {!OBJ_CODEC} readers on malformed
    payloads; confined to the codec — {!Make.decode} catches it and
    returns {!Corrupt}. *)

module Wr : sig
  val int : Buffer.t -> int -> unit  (** zigzag LEB128 varint *)

  val string : Buffer.t -> string -> unit  (** varint length + bytes *)
end

module Rd : sig
  type t

  val of_string : string -> t
  val int : t -> int
  val string : t -> string
  val at_end : t -> bool

  val fail : string -> 'a
  (** [raise (Bad_payload _)] — for object codecs rejecting bad tags. *)
end

(** {2 Typed messages} *)

(** Per-object (de)serialiser: how one registered data type's operations
    and results travel.  Readers raise {!Bad_payload} on malformed input
    and nothing else. *)
module type OBJ_CODEC = sig
  module D : Spec.Data_type.S

  val obj_tag : int
  (** Wire identity of the object, carried in the handshake so a register
      replica never deserialises queue operations. *)

  val write_op : Buffer.t -> D.op -> unit
  val read_op : Rd.t -> D.op
  val write_result : Buffer.t -> D.result -> unit
  val read_result : Rd.t -> D.result

  val write_state : Buffer.t -> D.state -> unit
  (** Serialise a whole object state — used by the durability layer's
      snapshots ({!Persist}), never by wire frames. *)

  val read_state : Rd.t -> D.state
end

type hello = {
  pid : int;
  n : int;
  d : int;
  u : int;
  eps : int;
  x : int;
  obj_tag : int;
  shards : int;  (** shard count of the sender's host (≥ 1) *)
}
(** The connect handshake: the sender's identity plus the parameters it
    runs Algorithm 1 with.  Receivers reject mismatches — a cluster whose
    members disagree on [(n, d, u, ε, X)], on the object, or on the shard
    topology would silently violate the model's admissibility assumptions
    (or route operations to the wrong object) instead. *)

module Make (O : OBJ_CODEC) : sig
  type msg =
    | Hello of hello  (** first frame on a replica→replica connection *)
    | Entry of {
        op : O.D.op;
        time : int;
        pid : int;
        trace : int;
        op_id : int;
        shard : int;
      }
        (** an Algorithm 1 protocol message: operation + ⟨time, pid⟩ stamp
            + originating trace id (0 when untraced) + client operation id
            (0 when the client did not ask for idempotence) + shard id of
            the instance it belongs to (0 = the only shard) *)
    | Invoke of {
        op : O.D.op;
        trace : int;
        op_id : int;
        shard : int;
        deadline : int;
            (** client-minted absolute deadline, µs on the shared
                monotonic timeline ({!Prelude.Mclock}); 0 = none.  A
                server sheds the op instead of starting work it cannot
                finish in time. *)
      }
        (** client → replica; a retry re-sends the same [op_id] (and the
            same deadline — the deadline belongs to the operation, not
            the attempt) *)
    | Result of { result : O.D.result; shard : int }
        (** replica → client, echoing the invoking shard *)
    | Stats_req  (** client → replica: transport stats probe *)
    | Stats of Runtime.Transport_intf.stats  (** replica → client *)
    | Error_msg of string  (** replica → client: invocation failed *)
    | Catchup_req of { time : int; cpid : int; shard : int }
        (** restarted replica → peers: "send me everything above my
            high-water mark ⟨time, cpid⟩" (time −1 = empty), per shard *)
    | Catchup_rep of {
        entries : (O.D.op * int * int * int) list;
            (** (op, time, pid, op id) in stamp order *)
        time : int;
        cpid : int;  (** the replier's own high-water mark *)
        shard : int;
      }
    | Hb of {
        stamp : int;
        epoch : int;
        qmode : bool;
        seq : int;
        floor : int;
        shard : int;
      }
        (** replica → replicas: failure-detector heartbeat carrying the
            sender's clock, doubling as the mode announcement (epoch,
            fast/quorum, sequencer pid, stamp floor) — see DESIGN.md §13 *)
    | Forward of {
        qid : int;
        origin : int;
        op : O.D.op;
        op_id : int;
        trace : int;
        shard : int;
      }  (** origin replica → sequencer: order this op in the quorum log *)
    | Propose of {
        epoch : int;
        qseq : int;
        time : int;  (** assigned stamp time; the stamp pid is [origin] *)
        origin : int;
        qid : int;
        op : O.D.op;
        op_id : int;
        trace : int;
        shard : int;
      }  (** sequencer → replicas: slot [qseq] of era [epoch] holds this *)
    | Qack of { epoch : int; qseq : int; shard : int }
        (** follower → sequencer: slot stored *)
    | Qcommit of { epoch : int; qseq : int; shard : int }
        (** sequencer → replicas: majority reached; apply in slot order *)
    | Fnack of { qid : int; shard : int }
        (** addressee was not the sequencer: re-route the forward *)
    | Qfill of { epoch : int; from_seq : int; shard : int }
        (** follower → sequencer: re-send payloads from [from_seq] up *)
    | Ping of { seq : int; t0 : int; shard : int }
        (** replica → replicas: sync probe; [t0] is the prober's corrected
            clock at send (µs) *)
    | Pong of { seq : int; t0 : int; t_rx : int; t_tx : int; shard : int }
        (** probe echo: [seq]/[t0] copied from the ping, [t_rx]/[t_tx] the
            responder's corrected clock at receipt and reply — the four
            NTP timestamps of a two-way offset sample *)
    | Shed of { reason : string; shard : int }
        (** replica → client: the op was refused (or abandoned) by
            overload protection — deadline already passed, admission
            control predicted a miss, or the inflight budget was full.
            A distinct retryable class: the op was {e not} executed, so
            an idempotent retry with capped backoff is always safe. *)

  val equal_msg : msg -> msg -> bool
  val pp_msg : Format.formatter -> msg -> unit

  val encode : msg -> string
  (** Full frame bytes, ready for the wire. *)

  val decode_payload : frame -> (msg, string) result
  (** Interpret an already-framed payload; [Error] on unknown kind,
      malformed payload, or trailing bytes. *)

  val decode : ?pos:int -> string -> msg progress
  (** {!decode_frame} followed by {!decode_payload}; total. *)
end
