import java.util.concurrent.locks.Lock;
import java.util.concurrent.locks.ReentrantLock;
import javax.annotation.concurrent.ThreadSafe;

// Striped with a slip: bumpOdd writes even under odds, so the two writes of
// even hold different locks; P3 reports three pairs, and the oracle finds
// the race
@ThreadSafe
class StripedMiss {
  private final Lock evens = new ReentrantLock();
  private final Lock odds = new ReentrantLock();
  private int even = 0;
  private int odd = 0;
  private volatile boolean open = true;

  public void bumpEven() {
    evens.lock();
    try {
      even = even + 1;
    } finally {
      evens.unlock();
    }
  }

  public void bumpOdd() {
    odds.lock();
    try {
      even = even + 1;
    } finally {
      odds.unlock();
    }
  }

  public void close() {
    open = false;
  }

  public boolean isOpen() {
    return open;
  }
}
