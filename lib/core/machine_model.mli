(** A memory-cycle cost model for the paper's 1990 CPUs.

    Table 1 was measured on a µVAX III and a MIPS R2000 — hardware we do
    not have. Following DESIGN.md's substitution rule, this model
    regenerates the table's {e shape} from first principles: a machine is
    (clock rate, cycles per load / store / ALU op, loop overhead), a
    kernel is its per-32-bit-word operation counts, and throughput follows
    directly. The machine parameters are calibrated so the two reference
    kernels land on the paper's numbers; every {e other} prediction
    (fused loops, serial compositions, the presentation kernel) is then a
    genuine output of the model, checked against the paper's in-text
    measurements by experiment E1/E2.

    The model also expresses the paper's central ILP claim structurally:
    {!fuse} shares loads and stores between kernels while summing their
    ALU work, whereas {!serial_mbps} pays full memory traffic per stage. *)

type machine = {
  machine_name : string;
  mhz : float;
  load_cycles : float;  (** Per 32-bit load reaching memory. *)
  store_cycles : float;
  alu_cycles : float;  (** Per register-to-register operation. *)
  loop_cycles : float;  (** Amortised branch/index overhead per word. *)
}

val uvax3 : machine
(** µVAX III (CVAX at ~11 MHz, microcoded, write-through). *)

val r2000 : machine
(** MIPS R2000 at 16.7 MHz (single-issue RISC with load delay). *)

type kernel = {
  kernel_name : string;
  loads : float;  (** 32-bit loads per word of data. *)
  stores : float;
  alu : float;
}

val copy_kernel : kernel
val checksum_kernel : kernel

val ber_encode_int_kernel : kernel
(** Per-element tag/length/value processing of SEQUENCE OF INTEGER —
    byte-grained stores and range tests make it ALU- and store-heavy. *)

val fuse : kernel list -> kernel
(** One integrated loop: loads and stores are shared (max across kernels),
    ALU work is summed, and the name records the composition. *)

val cycles_per_word : machine -> kernel -> float
val mbps : machine -> kernel -> float
(** Megabits of data per second through the kernel. *)

val serial_mbps : machine -> kernel list -> float
(** Each kernel as a separate pass over memory: the harmonic composition
    1 / Σ (1/mbps_i). *)
