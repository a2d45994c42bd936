import java.util.concurrent.locks.Lock;
import java.util.concurrent.locks.ReentrantLock;
import javax.annotation.concurrent.ThreadSafe;

// the throw leaves through the finally's unlock
@ThreadSafe
class ThrowInTry {
  private int balance = 0;
  private final Lock lock = new ReentrantLock();

  public void withdraw(int n) {
    lock.lock();
    try {
      if (n > balance) {
        throw new IllegalStateException();
      }
      balance = balance - n;
    } finally {
      lock.unlock();
    }
  }

  public int read() {
    lock.lock();
    try {
      return balance;
    } finally {
      lock.unlock();
    }
  }
}
