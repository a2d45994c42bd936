import java.util.concurrent.locks.Lock;
import java.util.concurrent.locks.ReentrantLock;
import javax.annotation.concurrent.ThreadSafe;

// lock striping: evens guards even and odds guards odd, and a volatile flag
// needs no lock; P3 reports nothing, and the oracle finds no race. Actions on
// the two locks commute, so the oracle explores one order of bumpEven|bumpOdd
@ThreadSafe
class Striped {
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
      odd = odd + 1;
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
