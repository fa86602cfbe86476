//! Extension demo (§4.6): diagnosing a race between a system call and a
//! *hardware interrupt handler*.
//!
//! The paper leaves IRQ contexts as future work, noting that "AITIA is able
//! to diagnose such concurrent bugs if the AITIA hypervisor injects an IRQ
//! through the VT-x mechanism as is done for system calls". The simulator's
//! hypervisor-equivalent does exactly that: registered handlers become
//! interleaving targets, and switching to one at a scheduling point injects
//! the interrupt.
//!
//! ```text
//! cargo run --release --example irq_injection
//! ```

use aitia_repro::aitia::{
    CausalityAnalysis,
    CausalityConfig,
    Lifs,
    LifsConfig, //
};
use aitia_repro::corpus::figures;
use std::sync::Arc;

fn main() {
    // A driver write path fills a DMA buffer while `dev->busy` is set; the
    // completion interrupt tears the buffer down when it observes `busy`.
    // If the IRQ fires between the write path's buffer load and its store,
    // the store hits NULL.
    let program = Arc::new(figures::irq_scenario());

    let search = Lifs::new(Arc::clone(&program), LifsConfig::default()).search();
    let run = search
        .failing
        .expect("the injected IRQ reproduces the race");
    println!(
        "reproduced {} after {} schedules (interleaving count {})",
        run.failure, search.stats.schedules_executed, search.stats.interleaving_count
    );
    // The handler really ran as an injected context.
    let irq_steps = run
        .trace
        .iter()
        .filter(|r| program.instr_name(r.at()).starts_with('I'))
        .count();
    println!("interrupt handler executed {irq_steps} instruction(s) in the failing run");
    assert!(irq_steps > 0);

    let result = CausalityAnalysis::new(CausalityConfig::default()).analyze(&run);
    println!("causality chain: {}", result.chain);
    // The chain crosses the interrupt boundary.
    assert!(
        result.chain.to_string().contains("I2") || result.chain.to_string().contains("I1"),
        "chain must involve the handler"
    );
    println!("\nRCU bonus: the grace-period discipline proves a protected reader safe —");
    let safe = Lifs::new(Arc::new(figures::rcu_scenario(true)), LifsConfig::default()).search();
    let unsafe_ = Lifs::new(
        Arc::new(figures::rcu_scenario(false)),
        LifsConfig::default(),
    )
    .search();
    println!(
        "  rcu_read_lock()-protected reader: {} (after {} schedules)",
        if safe.failing.is_none() {
            "no failure exists"
        } else {
            "FAILED?"
        },
        safe.stats.schedules_executed
    );
    println!(
        "  unprotected reader:               {}",
        unsafe_
            .failing
            .map(|r| r.failure.to_string())
            .unwrap_or_else(|| "no failure".into())
    );
    assert!(safe.failing.is_none());
}
